// Package metrics is the repo's zero-dependency observability substrate:
// a race-safe registry of named counters, gauges and fixed-bucket
// histograms with cheap snapshot semantics.
//
// Design constraints (see DESIGN.md §Observability):
//
//   - Hot-path cost is one atomic op per event. Instruments are resolved
//     once (at construction time) and cached as struct fields; the
//     registry map is only consulted at registration and snapshot time.
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
	"math"
	"sort"
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
// bucket counts and the total count are atomics; the running sum is a
// float64 maintained with a CAS loop. All methods are safe on a nil
// receiver.
type Histogram struct {
	bounds  []float64 // sorted, immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
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
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
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

// Registry holds named instruments. Registration is idempotent: asking
// twice for the same name returns the same instrument, so independent
// subsystems can share one registry without coordination. A nil
// *Registry is a valid no-op registry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. Re-registration with different
// bounds keeps the original bounds (first registration wins). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
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
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v.Load()
	}
	for name, h := range r.histograms {
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
