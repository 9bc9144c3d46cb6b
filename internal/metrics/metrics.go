// Package metrics is the repo's zero-dependency observability substrate:
// a race-safe registry of named counters, gauges and fixed-bucket
// histograms with cheap snapshot semantics.
//
// Design constraints (see DESIGN.md §Observability):
//
//   - Hot-path cost is one atomic op per event. Instruments are resolved
//     once (at construction time) and cached as struct fields; the
//     registry's names are only consulted at registration and snapshot
//     time.
//   - A peer's books cost little: a Layout declares a registry's
//     instruments once per process, so every registry made from it
//     holds its counters in one block and shares the names; histograms
//     share their bounds and allocate buckets on first use.
//   - A nil *Registry is a valid no-op registry: every constructor on a
//     nil receiver returns a nil instrument, and every instrument method
//     on a nil receiver returns immediately. Code can therefore be
//     instrumented unconditionally and run metrics-free at zero cost.
//   - Snapshots are deterministic given deterministic event sequences:
//     iteration order is sorted by name, and histogram counts depend only
//     on the observed values, never on wall-clock time. (Latency
//     histograms observe wall time and so are deterministic in count but
//     not in bucket distribution; simnet determinism tests compare counts
//     and value-deterministic buckets only.)
//   - No external dependencies; encoding/json only at snapshot time.
package metrics

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops / zero values).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is an instantaneous signed level (queue depths, in-flight
// dispatches, buffered bytes). All methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative d decreases it).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Histogram is a fixed-bucket histogram: bucket i counts observations v
// with v <= Bounds[i]; one implicit overflow bucket counts the rest. The
// bucket counts are atomics, and the total count is their sum, taken at
// snapshot time; the running sum is a float64 maintained with a CAS loop.
// The bucket array is allocated by the first Observe, so a histogram that
// never observes costs its header only. All methods are safe on a nil
// receiver.
type Histogram struct {
	bounds  []float64 // shared by every histogram with the same bound set (sharedBounds): never written, never handed out
	buckets atomic.Pointer[[]atomic.Uint64]
	sum     atomic.Uint64 // float64 bits
}

// boundSets holds one sorted, immutable slice per distinct bound set, so
// the histograms of every registry in the process share their bounds.
var boundSets struct {
	mu   sync.Mutex
	sets map[string][]float64 // keyed by the sorted bounds' bits
}

// sharedBounds returns the process's shared slice for bounds' set.
func sharedBounds(bounds []float64) []float64 {
	b := slices.Clone(bounds)
	slices.Sort(b)
	key := make([]byte, 0, 8*len(b))
	for _, v := range b {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	boundSets.mu.Lock()
	defer boundSets.mu.Unlock()
	if s, ok := boundSets.sets[string(key)]; ok {
		return s
	}
	if boundSets.sets == nil {
		boundSets.sets = make(map[string][]float64)
	}
	boundSets.sets[string(key)] = b
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Find the first bound >= v. Bucket arrays are tiny (≤ ~20 bounds);
	// a linear scan beats sort.Search at this size and branch-predicts
	// well for skewed distributions.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	b := h.buckets.Load()
	if b == nil {
		b = h.allocBuckets()
	}
	(*b)[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// allocBuckets installs the bucket array on the first Observe; when two
// first observations race, both use the array that won.
func (h *Histogram) allocBuckets() *[]atomic.Uint64 {
	b := make([]atomic.Uint64, len(h.bounds)+1)
	if h.buckets.CompareAndSwap(nil, &b) {
		return &b
	}
	return h.buckets.Load()
}

// snapshot copies the histogram's state, bounds included: a snapshot
// shares no memory with any live histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  slices.Clone(h.bounds),
		Buckets: make([]uint64, len(h.bounds)+1),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	if b := h.buckets.Load(); b != nil {
		for i := range *b {
			s.Buckets[i] = (*b)[i].Load()
			s.Count += s.Buckets[i]
		}
	}
	return s
}

// HistogramSnapshot is one histogram's state at snapshot time.
// Buckets[i] counts observations <= Bounds[i]; Buckets[len(Bounds)] is
// the overflow bucket.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, with deterministic
// (sorted) JSON encoding via encoding/json's map key ordering.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Layout names a fixed set of instruments once per process: a package
// that builds one registry per peer declares its instruments in a Layout,
// and every registry made from it holds them in one block per kind,
// allocated at once. The names stay in the Layout, shared by every such
// registry, and are read only by registration and Snapshot. A Layout is
// immutable.
type Layout struct {
	counters, gauges, histograms []string
	bounds                       [][]float64 // bounds[i] is histograms[i]'s shared bound set
	index                        [3]map[string]int
}

// NewLayout declares counters, gauges and histograms (name → bucket
// bounds). A name may appear once per kind.
func NewLayout(counters, gauges []string, histograms map[string][]float64) *Layout {
	l := &Layout{counters: slices.Clone(counters), gauges: slices.Clone(gauges), histograms: slices.Sorted(maps.Keys(histograms))}
	for _, name := range l.histograms {
		l.bounds = append(l.bounds, sharedBounds(histograms[name]))
	}
	for k, names := range [3][]string{l.counters, l.gauges, l.histograms} {
		l.index[k] = make(map[string]int, len(names))
		for i, name := range names {
			if _, dup := l.index[k][name]; dup {
				panic("metrics: " + name + " declared twice in one layout")
			}
			l.index[k][name] = i
		}
	}
	return l
}

// NewRegistry returns a registry holding l's instruments, all at zero.
func (l *Layout) NewRegistry() *Registry {
	r := &Registry{
		layout:     l,
		counters:   make([]Counter, len(l.counters)),
		gauges:     make([]Gauge, len(l.gauges)),
		histograms: make([]Histogram, len(l.histograms)),
	}
	for i := range r.histograms {
		r.histograms[i].bounds = l.bounds[i]
	}
	return r
}

// Indices of Layout.index.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

// slot returns name's index among the layout's instruments of kind k, or
// -1 when the registry has no layout or the layout does not declare it.
func (r *Registry) slot(k int, name string) int {
	if r.layout == nil {
		return -1
	}
	if i, ok := r.layout.index[k][name]; ok {
		return i
	}
	return -1
}

// Registry holds named instruments. Registration is idempotent: asking
// twice for the same name returns the same instrument, so independent
// subsystems can share one registry without coordination. The
// instruments of the registry's Layout, if it has one, sit in one block
// each per kind; any other name gets its own instrument in a map. A nil
// *Registry is a valid no-op registry.
type Registry struct {
	// The layout's instruments: fixed at construction, read without a
	// lock.
	layout     *Layout
	counters   []Counter
	gauges     []Gauge
	histograms []Histogram

	mu    sync.Mutex
	extra struct {
		counters   map[string]*Counter
		gauges     map[string]*Gauge
		histograms map[string]*Histogram
	}
}

// NewRegistry returns an empty registry with no layout.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if i := r.slot(kindCounter, name); i >= 0 {
		return &r.counters[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return getOrMake(&r.extra.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if i := r.slot(kindGauge, name); i >= 0 {
		return &r.gauges[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return getOrMake(&r.extra.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. Re-registration with different
// bounds keeps the original bounds (first registration wins; a layout's
// histograms are registered first). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if i := r.slot(kindHistogram, name); i >= 0 {
		return &r.histograms[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return getOrMake(&r.extra.histograms, name, func() *Histogram { return &Histogram{bounds: sharedBounds(bounds)} })
}

// getOrMake returns (*m)[name], storing mk() there first when absent.
func getOrMake[T any](m *map[string]*T, name string, mk func() *T) *T {
	if v, ok := (*m)[name]; ok {
		return v
	}
	if *m == nil {
		*m = make(map[string]*T)
	}
	v := mk()
	(*m)[name] = v
	return v
}

// Snapshot copies every instrument's current state. Safe to call
// concurrently with updates; each instrument is read atomically (the
// snapshot is per-instrument consistent, not globally consistent).
// Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	if l := r.layout; l != nil {
		for i, name := range l.counters {
			s.Counters[name] = r.counters[i].v.Load()
		}
		for i, name := range l.gauges {
			s.Gauges[name] = r.gauges[i].v.Load()
		}
		for i, name := range l.histograms {
			s.Histograms[name] = r.histograms[i].snapshot()
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.extra.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range r.extra.gauges {
		s.Gauges[name] = g.v.Load()
	}
	for name, h := range r.extra.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Merge adds other's counters and histogram contents into s and keeps
// the element-wise max of gauges (a level summed across nodes is
// meaningless; the max is the hot spot). Histograms merge bucket-wise
// when bounds match; mismatched bounds keep s's entry and add only
// count/sum. Merge is how per-node registries aggregate into one
// cluster-wide snapshot (the chaos harness, a node's debug endpoint).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if cur, ok := s.Gauges[name]; !ok || v > cur {
			s.Gauges[name] = v
		}
	}
	for name, h := range other.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			cp := HistogramSnapshot{
				Bounds:  append([]float64(nil), h.Bounds...),
				Buckets: append([]uint64(nil), h.Buckets...),
				Count:   h.Count,
				Sum:     h.Sum,
			}
			s.Histograms[name] = cp
			continue
		}
		cur.Count += h.Count
		cur.Sum += h.Sum
		if boundsEqual(cur.Bounds, h.Bounds) {
			merged := append([]uint64(nil), cur.Buckets...)
			for i := range h.Buckets {
				merged[i] += h.Buckets[i]
			}
			cur.Buckets = merged
		}
		s.Histograms[name] = cur
	}
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LatencyBuckets is the preset bound set for wall-clock latency
// histograms, in seconds: 1µs … 10s, roughly ×3 per step.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
		1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
	}
}

// HopBuckets is the preset bound set for greedy-route hop-count
// histograms: the paper's O(log²N) bound keeps real routes short, so
// single-hop resolution up to 16 then coarse tail buckets.
func HopBuckets() []float64 {
	return []float64{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		24, 32, 48, 64, 128,
	}
}
