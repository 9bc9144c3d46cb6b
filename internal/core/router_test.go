package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/workload"
)

func TestRouterMatchesSequentialRouting(t *testing.T) {
	o := newTestOverlay(5000)
	rng := rand.New(rand.NewSource(201))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 1500)

	r := o.NewRouter()
	for q := 0; q < 200; q++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		h1, err1 := o.RouteToObject(a, b)
		h2, err2 := r.routeToObject(a, b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if h1 != h2 {
			t.Fatalf("hop mismatch %d vs %d for %d->%d", h1, h2, a, b)
		}
	}
	if r.Steps == 0 {
		t.Fatal("router did not count steps")
	}
}

func TestMeasureRoutesParallel(t *testing.T) {
	o := newTestOverlay(5000)
	rng := rand.New(rand.NewSource(202))
	ids := fill(t, o, workload.ByName("alpha2", rng), 1200)

	pairs := make([]RoutePair, 400)
	for i := range pairs {
		pairs[i] = RoutePair{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))]}
	}
	// Sequential reference.
	seq := make([]int, len(pairs))
	for i, p := range pairs {
		h, err := o.RouteToObject(p.From, p.To)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = h
	}
	for _, workers := range []int{1, 2, 4, 8} {
		hops, steps, err := o.MeasureRoutes(pairs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var total uint64
		for i := range hops {
			if hops[i] != seq[i] {
				t.Fatalf("workers=%d pair %d: %d vs %d", workers, i, hops[i], seq[i])
			}
			total += uint64(hops[i])
		}
		if steps != total {
			t.Fatalf("workers=%d: steps %d != total hops %d", workers, steps, total)
		}
	}
	// Degenerate inputs.
	if _, _, err := o.MeasureRoutes(nil, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.MeasureRoutes([]RoutePair{{From: 999999, To: ids[0]}}, 2); err == nil {
		t.Fatal("missing object must error")
	}
}

// skipUnderRace skips a test whose allocation or heap counts the race
// detector's instrumentation would void.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// TestRouteZeroAllocs pins the read path at zero allocations per operation
// once its scratch is warm: a routed point through a Router, and a GET
// through the Store's pooled client. Skipped under the race detector,
// where sync.Pool drops items at random and the store client is rebuilt.
func TestRouteZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	o := newTestOverlay(20000)
	ids, err := o.BulkLoad(bulkTestPoints(20000, 31), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	keys := make([]geom.Point, 256)
	st := NewStore(o, 0)
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
		if _, _, err := st.Put(ids[rng.Intn(len(ids))], keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	r := o.NewRouter()
	i := 0
	route := func() {
		i++
		if _, err := r.RouteToPoint(ids[i*7919%len(ids)], keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		i++
		if _, _, err := st.Get(ids[i*7919%len(ids)], keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2*len(keys); w++ { // warm the scratch buffers
		route()
		get()
	}
	if n := testing.AllocsPerRun(2000, route); n != 0 {
		t.Errorf("Router.RouteToPoint allocates %.3f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, get); n != 0 {
		t.Errorf("Store.Get allocates %.3f times per call, want 0", n)
	}
}
