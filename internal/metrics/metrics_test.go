package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp: the metrics-off mode is a nil registry; every
// instrument path must be callable and free of panics.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.GaugeAt(gOne)
	h := r.Histogram("z", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	if r.CounterAt(cOne) != nil || r.HistogramAt(hLat) != nil {
		t.Fatal("nil registry must hand out nil instruments by ID")
	}
	c.Inc()
	c.Add(10)
	g.add(5)
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
	r := testLayout.NewRegistry()
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
			g := r.GaugeAt(gOne)
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
	if got, want := s.Gauges["g_one"], int64(workers*iters); got != want {
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
	a := testLayout.NewRegistry()
	b := testLayout.NewRegistry()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only_b").Add(1)
	a.GaugeAt(gOne).add(10)
	b.GaugeAt(gOne).add(7) // max wins
	bounds := []float64{1, 2}
	a.Histogram("h", bounds).Observe(0.5)
	b.Histogram("h", bounds).Observe(1.5)
	b.Histogram("h", bounds).Observe(9)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 7 || s.Counters["only_b"] != 1 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	if s.Gauges["g_one"] != 10 {
		t.Fatalf("merged gauge = %d, want max 10", s.Gauges["g_one"])
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
		r := testLayout.NewRegistry()
		for _, n := range []string{"z_last", "a_first", "m_mid"} {
			r.Counter(n).Add(7)
			r.Histogram("h_"+n, HopBuckets()).Observe(4)
		}
		r.GaugeAt(gOne).add(3)
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

// TestSnapshotDoesNotAliasBounds: a caller that edits a snapshot's bounds
// must change neither the histogram it came from nor any other one.
func TestSnapshotDoesNotAliasBounds(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a", []float64{1, 2, 5})
	r.Histogram("b", []float64{1, 2, 5})
	a.Observe(1.5)
	s := r.Snapshot().Histograms["a"]
	s.Bounds[0] = 99
	slices.Reverse(s.Bounds)
	for _, name := range []string{"a", "b"} {
		if got := r.Snapshot().Histograms[name].Bounds; !reflect.DeepEqual(got, []float64{1, 2, 5}) {
			t.Fatalf("histogram %s bounds = %v after a snapshot was edited, want [1 2 5]", name, got)
		}
	}
	a.Observe(1.5)
	if got := r.Snapshot().Histograms["a"].Buckets; !reflect.DeepEqual(got, []uint64{0, 2, 0, 0}) {
		t.Fatalf("buckets = %v after a snapshot was edited, want [0 2 0 0]", got)
	}
}

// testLayout is declared as a package that builds one registry per peer
// declares its instruments.
var testLayout Layout

var (
	cOne  = testLayout.Counter("c_one")
	cTwo  = testLayout.Counter("c_two")
	gOne  = testLayout.Gauge("g_one")
	hLat  = testLayout.Histogram("h_lat", LatencyBuckets())
	hHops = testLayout.Histogram("h_hops", HopBuckets())
)

// TestLayoutRegistry: a layout's instruments live in the registry's block
// at their IDs, registering one of them by name returns its slot, a
// registry made from the layout is independent of every other, and names
// outside the layout still register. A histogram that never observed is
// in the snapshot with zero buckets.
func TestLayoutRegistry(t *testing.T) {
	r1, r2 := testLayout.NewRegistry(), testLayout.NewRegistry()
	if r1.CounterAt(cTwo) != &r1.counters[1] || r1.Counter("c_two") != r1.CounterAt(cTwo) {
		t.Fatal("a layout counter must register as its slot in the block")
	}
	if r1.Histogram("h_hops", []float64{7}) != r1.HistogramAt(hHops) || r1.Histogram("h_lat", nil) != r1.HistogramAt(hLat) {
		t.Fatal("a layout histogram must register as its slot in the block")
	}
	if r1.CounterAt(cOne) == r2.CounterAt(cOne) || r1.GaugeAt(gOne) == r2.GaugeAt(gOne) {
		t.Fatal("two registries of one layout must not share an instrument")
	}
	r1.CounterAt(cOne).Add(3)
	r1.GaugeAt(gOne).add(-2)
	r1.HistogramAt(hHops).Observe(2)
	r1.Counter("extra").Inc()
	r1.Histogram("h_extra", []float64{2, 1}).Observe(5)

	s := r1.Snapshot()
	want := Snapshot{
		Counters: map[string]uint64{"c_one": 3, "c_two": 0, "extra": 1},
		Gauges:   map[string]int64{"g_one": -2},
		Histograms: map[string]HistogramSnapshot{
			"h_lat":   {Bounds: LatencyBuckets(), Buckets: make([]uint64, len(LatencyBuckets())+1)},
			"h_hops":  {Bounds: HopBuckets(), Buckets: append(make([]uint64, 2), append([]uint64{1}, make([]uint64, len(HopBuckets())-2)...)...), Count: 1, Sum: 2},
			"h_extra": {Bounds: []float64{1, 2}, Buckets: []uint64{0, 0, 1}, Count: 1, Sum: 5},
		},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("snapshot:\n got %+v\nwant %+v", s, want)
	}
	if s2 := r2.Snapshot(); s2.Counters["c_one"] != 0 || s2.Gauges["g_one"] != 0 || s2.Histograms["h_hops"].Count != 0 {
		t.Fatalf("a second registry of the layout saw the first one's events: %+v", s2)
	}
	if r1.HistogramAt(hLat).buckets.Load() != nil {
		t.Fatal("a histogram must allocate its buckets on its first Observe, not before")
	}
}

// TestBoundsAreShared: histograms with one bound set share one slice,
// across registries and whether or not they come from a layout.
func TestBoundsAreShared(t *testing.T) {
	a := testLayout.NewRegistry().HistogramAt(hLat)
	b := testLayout.NewRegistry().HistogramAt(hLat)
	c := NewRegistry().Histogram("x", LatencyBuckets())
	if &a.bounds[0] != &b.bounds[0] || &a.bounds[0] != &c.bounds[0] {
		t.Fatal("histograms with the same bounds must share one bound slice")
	}
	if d := NewRegistry().Histogram("y", []float64{3, 1}); !reflect.DeepEqual(d.bounds, []float64{1, 3}) {
		t.Fatalf("bounds = %v, want sorted", d.bounds)
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	f()
}

// TestLayoutRejectsDuplicates: a name may be declared once per kind; the
// same name as another kind is a different instrument.
func TestLayoutRejectsDuplicates(t *testing.T) {
	var l Layout
	l.Counter("a")
	l.Gauge("a")
	mustPanic(t, "a counter declared twice", func() { l.Counter("a") })
	mustPanic(t, "a gauge declared twice", func() { l.Gauge("a") })
	l.Histogram("h", []float64{1})
	mustPanic(t, "a histogram declared twice", func() { l.Histogram("h", []float64{2}) })
	s := l.NewRegistry().Snapshot()
	if len(s.Counters) != 1 || len(s.Gauges) != 1 || !reflect.DeepEqual(s.Histograms["h"].Bounds, []float64{1}) {
		t.Fatalf("a refused declaration changed the layout: %+v", s)
	}
}

// TestLayoutSealedByNewRegistry: registries made concurrently from one
// layout seal it (run under -race: the seal is one lock, not a racing
// write), and a declaration after that panics and leaves every registry
// as it was.
func TestLayoutSealedByNewRegistry(t *testing.T) {
	var l Layout
	c := l.Counter("c")
	regs := make([]*Registry, 4)
	var wg sync.WaitGroup
	for i := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			regs[i] = l.NewRegistry()
			regs[i].CounterAt(c).Inc()
		}()
	}
	wg.Wait()
	mustPanic(t, "a counter declared after NewRegistry", func() { l.Counter("late") })
	mustPanic(t, "a gauge declared after NewRegistry", func() { l.Gauge("late") })
	mustPanic(t, "a histogram declared after NewRegistry", func() { l.Histogram("late", nil) })
	for _, r := range regs {
		if s := r.Snapshot(); !reflect.DeepEqual(s.Counters, map[string]uint64{"c": 1}) || len(s.Gauges)+len(s.Histograms) != 0 {
			t.Fatalf("registry after a refused late declaration: %+v", s)
		}
	}
	if got := len(l.NewRegistry().counters); got != 1 {
		t.Fatalf("a registry made after a refused declaration holds %d counters, want 1", got)
	}
}

// TestFirstObserveRacesSnapshot: the first Observe of fresh histograms,
// which installs their bucket arrays, races Snapshot and Merge; run under
// -race. No observation may be lost to the race.
func TestFirstObserveRacesSnapshot(t *testing.T) {
	const rounds, observers = 50, 4
	for round := 0; round < rounds; round++ {
		r := testLayout.NewRegistry()
		extra := r.Histogram("h_extra", []float64{1})
		var wg sync.WaitGroup
		for w := 0; w < observers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.HistogramAt(hLat).Observe(1e-3)
				r.HistogramAt(hHops).Observe(3)
				extra.Observe(0.5)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var merged Snapshot
			for i := 0; i < 4; i++ {
				merged.Merge(r.Snapshot())
			}
		}()
		wg.Wait()
		for name, h := range r.Snapshot().Histograms {
			var total uint64
			for _, b := range h.Buckets {
				total += b
			}
			if h.Count != observers || total != observers {
				t.Fatalf("round %d: %s count %d, bucket total %d, want %d", round, name, h.Count, total, observers)
			}
		}
	}
}
