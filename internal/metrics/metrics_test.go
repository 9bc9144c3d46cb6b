package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp: the metrics-off mode is a nil registry; every
// instrument path must be callable and free of panics.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(10)
	g.Add(5)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %+v", s)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return same counter")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("same name must return same gauge")
	}
	h1 := r.Histogram("c", []float64{1, 2})
	h2 := r.Histogram("c", []float64{5, 6, 7})
	if h1 != h2 {
		t.Fatal("same name must return same histogram")
	}
	if !reflect.DeepEqual(h1.bounds, []float64{1, 2}) {
		t.Fatalf("first registration's bounds must win, got %v", h1.bounds)
	}
}

// TestHistogramBucketBoundaries pins the bucketing rule: bucket i counts
// v <= Bounds[i], the last bucket is overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 5})
	for _, v := range []float64{
		-3,   // below every bound -> bucket 0
		1,    // exactly bound 0 -> bucket 0 (<= rule)
		1.5,  // -> bucket 1
		2,    // exactly bound 1 -> bucket 1
		4.99, // -> bucket 2
		5,    // exactly bound 2 -> bucket 2
		5.01, // -> overflow
		1e18, // -> overflow
	} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []uint64{2, 2, 2, 2}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	wantSum := -3 + 1 + 1.5 + 2 + 4.99 + 5 + 5.01 + 1e18
	if math.Abs(s.Sum-wantSum) > 1 { // 1e18 dwarfs float precision
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{5, 1, 2})
	h.Observe(1.5)
	s := r.Snapshot().Histograms["h"]
	if !reflect.DeepEqual(s.Bounds, []float64{1, 2, 5}) {
		t.Fatalf("bounds = %v, want sorted", s.Bounds)
	}
	if s.Buckets[1] != 1 {
		t.Fatalf("1.5 must land in bucket 1 of sorted bounds, got %v", s.Buckets)
	}
}

// TestConcurrentTorture hammers one registry from many goroutines while
// snapshots run concurrently; run under -race this is the registry's
// race certification, and the final totals certify no lost updates.
func TestConcurrentTorture(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 16
		iters   = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_counter")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", []float64{0.25, 0.5, 0.75})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%4) * 0.25)
				// Also exercise registration under contention.
				r.Counter("shared_counter").Add(1)
			}
		}(w)
	}
	// Wait for the workers, then stop the snapshotter and wait for it.
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	close(stop)
	<-wgDone

	s := r.Snapshot()
	if got, want := s.Counters["shared_counter"], uint64(workers*iters*2); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
	if got, want := s.Gauges["shared_gauge"], int64(workers*iters); got != want {
		t.Fatalf("gauge = %d, want %d", got, want)
	}
	hs := s.Histograms["shared_hist"]
	if got, want := hs.Count, uint64(workers*iters); got != want {
		t.Fatalf("hist count = %d, want %d", got, want)
	}
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		bucketTotal += b
	}
	if bucketTotal != hs.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, hs.Count)
	}
	// Sum: each worker observes 0,0.25,0.5,0.75 repeating -> 1.5 per 4 iters.
	wantSum := float64(workers) * float64(iters) / 4 * 1.5
	if math.Abs(hs.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("hist sum = %g, want %g", hs.Sum, wantSum)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only_b").Add(1)
	a.Gauge("g").Add(10)
	b.Gauge("g").Add(7) // max wins
	bounds := []float64{1, 2}
	a.Histogram("h", bounds).Observe(0.5)
	b.Histogram("h", bounds).Observe(1.5)
	b.Histogram("h", bounds).Observe(9)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 7 || s.Counters["only_b"] != 1 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 10 {
		t.Fatalf("merged gauge = %d, want max 10", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if !reflect.DeepEqual(h.Buckets, []uint64{1, 1, 1}) {
		t.Fatalf("merged buckets = %v", h.Buckets)
	}
	if h.Count != 3 || h.Sum != 11 {
		t.Fatalf("merged count/sum = %d/%g", h.Count, h.Sum)
	}

	// Mismatched bounds: count/sum still aggregate, buckets keep target's.
	c := NewRegistry()
	c.Histogram("h", []float64{100}).Observe(50)
	s.Merge(c.Snapshot())
	h = s.Histograms["h"]
	if h.Count != 4 || h.Sum != 61 {
		t.Fatalf("mismatched-bounds merge count/sum = %d/%g", h.Count, h.Sum)
	}
	if !reflect.DeepEqual(h.Bounds, []float64{1, 2}) {
		t.Fatalf("mismatched-bounds merge must keep target bounds, got %v", h.Bounds)
	}
}

// TestMergeDoesNotAliasSource: merging into an empty snapshot must deep
// copy bucket slices, not alias them.
func TestMergeDoesNotAliasSource(t *testing.T) {
	src := NewRegistry()
	src.Histogram("h", []float64{1}).Observe(0.5)
	srcSnap := src.Snapshot()
	var dst Snapshot
	dst.Merge(srcSnap)
	dst.Merge(srcSnap) // second merge doubles dst, must not corrupt srcSnap
	if srcSnap.Histograms["h"].Buckets[0] != 1 {
		t.Fatalf("source snapshot mutated: %v", srcSnap.Histograms["h"].Buckets)
	}
	if dst.Histograms["h"].Buckets[0] != 2 {
		t.Fatalf("double merge = %v, want bucket 2", dst.Histograms["h"].Buckets)
	}
}

// TestSnapshotJSONDeterministic: two identical registries must encode to
// byte-identical JSON (encoding/json sorts map keys) — the property the
// simnet determinism test and BENCH trajectory diffs rely on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		for _, n := range []string{"z_last", "a_first", "m_mid"} {
			r.Counter(n).Add(7)
			r.Gauge("g_" + n).Add(3)
			r.Histogram("h_"+n, HopBuckets()).Observe(4)
		}
		return r
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
}
