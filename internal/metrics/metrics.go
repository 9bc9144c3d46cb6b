// Package metrics is the repo's zero-dependency observability substrate:
// a race-safe registry of named counters, gauges and fixed-bucket
// histograms with cheap snapshot semantics.
//
// Design constraints (see DESIGN.md §Observability):
//
//   - Hot-path cost is one atomic op per event. A hot path reaches an
//     instrument through the ID its Layout declaration returned, an index
//     into the registry's block: no lock and no map. Names are only
//     consulted at declaration, registration by name and snapshot time.
//   - A peer's books cost little: a Layout declares a registry's
//     instruments once per process, so every registry made from it
//     holds its counters in one block and shares the names; histograms
//     share their bounds and allocate buckets on first use.
//   - A nil *Registry is a valid no-op registry: every accessor on a
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

// add moves the gauge by d (negative d decreases it).
func (g *Gauge) add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.add(-1) }

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

// Layout declares a fixed set of instruments once per process. A package
// that builds one registry per peer keeps a Layout as a package variable
// (the zero Layout is empty and ready) and declares each instrument on it
// once, as a package variable too. A declaration returns the
// instrument's ID; every registry made from the layout holds its
// instruments in one block per kind, allocated at once, and a hot path
// reaches an instrument through its ID with no name lookup. The names
// stay in the Layout, shared by every registry, and are read only by
// registration by name and Snapshot. The first NewRegistry seals the
// layout: a later declaration panics, and so does a name declared twice
// for one kind.
type Layout struct {
	mu                           sync.Mutex // guards everything below until sealed; nothing changes after
	sealed                       bool
	counters, gauges, histograms []string
	bounds                       [][]float64 // bounds[i] is histograms[i]'s shared bound set
	index                        [3]map[string]int
}

// CounterID, GaugeID and HistogramID name one instrument of a Layout: its
// slot in the registry's block, plus one, so that the zero ID names none.
// A table of IDs leaves the entries it does not use at zero, and a
// registry handed one panics rather than count into another instrument.
type (
	CounterID   int32
	GaugeID     int32
	HistogramID int32
)

// Counter declares a counter.
func (l *Layout) Counter(name string) CounterID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CounterID(l.declare(kindCounter, name, &l.counters))
}

// Gauge declares a gauge.
func (l *Layout) Gauge(name string) GaugeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return GaugeID(l.declare(kindGauge, name, &l.gauges))
}

// Histogram declares a histogram with the given bucket bounds.
func (l *Layout) Histogram(name string, bounds []float64) HistogramID {
	b := sharedBounds(bounds)
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.declare(kindHistogram, name, &l.histograms)
	l.bounds = append(l.bounds, b)
	return HistogramID(id)
}

// declare appends name to names, the layout's list of kind k, and returns
// its ID. Called with l.mu held.
func (l *Layout) declare(k int, name string, names *[]string) int32 {
	if l.sealed {
		panic("metrics: " + name + " declared after its layout made a registry")
	}
	if _, dup := l.index[k][name]; dup {
		panic("metrics: " + name + " declared twice in one layout")
	}
	if l.index[k] == nil {
		l.index[k] = make(map[string]int)
	}
	l.index[k][name] = len(*names)
	*names = append(*names, name)
	return int32(len(*names))
}

// NewRegistry seals l and returns a registry holding its instruments, all
// at zero.
func (l *Layout) NewRegistry() *Registry {
	l.mu.Lock()
	l.sealed = true
	l.mu.Unlock()
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

// Registry holds named instruments. The instruments of the registry's
// Layout, if it has one, sit in one block per kind and are reached by
// ID. Registration by name is idempotent: asking twice for the same name
// returns the same instrument, a layout's from its block and any other
// name's from a map, so independent subsystems can share one registry
// without coordination. A nil *Registry is a valid no-op registry.
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
		histograms map[string]*Histogram
	}
}

// NewRegistry returns an empty registry with no layout.
func NewRegistry() *Registry { return &Registry{} }

// CounterAt returns the counter id names. Returns nil on a nil registry.
func (r *Registry) CounterAt(id CounterID) *Counter {
	if r == nil {
		return nil
	}
	return &r.counters[id-1]
}

// GaugeAt returns the gauge id names. Returns nil on a nil registry.
func (r *Registry) GaugeAt(id GaugeID) *Gauge {
	if r == nil {
		return nil
	}
	return &r.gauges[id-1]
}

// HistogramAt returns the histogram id names. Returns nil on a nil
// registry.
func (r *Registry) HistogramAt(id HistogramID) *Histogram {
	if r == nil {
		return nil
	}
	return &r.histograms[id-1]
}

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

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. Re-registration with different
// bounds keeps the original bounds (first registration wins; a layout's
// histograms are declared first). Returns nil on a nil registry.
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
