package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voronet/internal/geom"
	"voronet/internal/workload"
)

func TestAccessors(t *testing.T) {
	o := New(Config{NMax: 500, Seed: 99, LongLinks: 2})
	rng := rand.New(rand.NewSource(100))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 50)
	if ln, err := o.LongNeighbors(ids[0]); err != nil || len(ln) != 2 {
		t.Fatalf("LongNeighbors: %v, %v; want 2 links", ln, err)
	}
	if _, err := o.Position(987654); !errors.Is(err, ErrNotFound) {
		t.Fatal("Position of missing object must fail")
	}
	if _, err := o.backLongRange(987654); !errors.Is(err, ErrNotFound) {
		t.Fatal("backLongRange of missing object must fail")
	}
	if _, err := o.LongTargets(987654); !errors.Is(err, ErrNotFound) {
		t.Fatal("LongTargets of missing object must fail")
	}
	if _, err := o.LongNeighbors(987654); !errors.Is(err, ErrNotFound) {
		t.Fatal("LongNeighbors of missing object must fail")
	}
	if _, err := o.Degree(987654); !errors.Is(err, ErrNotFound) {
		t.Fatal("Degree of missing object must fail")
	}
	if _, err := o.VoronoiNeighbors(987654, nil); !errors.Is(err, ErrNotFound) {
		t.Fatal("VoronoiNeighbors of missing object must fail")
	}
	if _, err := o.CloseNeighbors(987654, nil); !errors.Is(err, ErrNotFound) {
		t.Fatal("CloseNeighbors of missing object must fail")
	}

	// RandomObject over an empty overlay fails; over a live one it draws
	// every object eventually.
	empty := New(Config{NMax: 10})
	if _, err := empty.RandomObject(rng); !errors.Is(err, ErrEmpty) {
		t.Fatal("RandomObject on empty overlay must fail")
	}
	seen := map[ObjectID]bool{}
	for i := 0; i < 2000; i++ {
		id, err := o.RandomObject(rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
	}
	if len(seen) != len(ids) {
		t.Fatalf("RandomObject reached %d/%d objects", len(seen), len(ids))
	}

	// ForEachObject visits everything once; early stop works.
	count := 0
	o.ForEachObject(func(*Object) bool { count++; return true })
	if count != len(ids) {
		t.Fatalf("ForEachObject visited %d", count)
	}
	count = 0
	o.ForEachObject(func(*Object) bool { count++; return false })
	if count != 1 {
		t.Fatalf("ForEachObject early stop visited %d", count)
	}

	c := o.Counters()
	_ = c
	o.ResetCounters()
	if o.Counters().GreedySteps != 0 {
		t.Fatal("ResetCounters did not reset")
	}
}

func TestBackLongRangeView(t *testing.T) {
	o := newTestOverlay(1000)
	rng := rand.New(rand.NewSource(101))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 200)
	// Every long link must appear in its holder's BLRn view.
	for _, id := range ids {
		ln, _ := o.LongNeighbors(id)
		for j, holder := range ln {
			back, err := o.backLongRange(holder)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, ref := range back {
				if ref.Obj == id && ref.Link == j {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("link (%d,%d) missing from BLRn(%d)", id, j, holder)
			}
		}
	}
}

func TestLinkRadiusExponents(t *testing.T) {
	// The generalised Choose-LRT must respect bounds for every exponent
	// and reduce to log-uniform at s=2 (tested elsewhere). For s≈0 the
	// density is ∝ r (area-uniform): P(r <= rmax/2) should be ~1/4.
	// (The zero value of LongLinkExponent means "paper default s=2", so
	// the area-uniform regime is requested with a small epsilon.)
	o := New(Config{NMax: 10000, Seed: 7, LongLinkExponent: 0.01})
	nBelow := 0
	const n = 40000
	half := math.Sqrt2 / 2
	for i := 0; i < n; i++ {
		r := linkRadius(o)
		if r < o.DMin()-1e-15 || r > math.Sqrt2+1e-12 {
			t.Fatalf("s=0 radius %g out of bounds", r)
		}
		if r <= half {
			nBelow++
		}
	}
	frac := float64(nBelow) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("s=0 CDF at rmax/2: %g, want ~0.25", frac)
	}

	// s=3: strongly short-biased; the median must be far below s=0's.
	o3 := New(Config{NMax: 10000, Seed: 7, LongLinkExponent: 3})
	below := 0
	for i := 0; i < n; i++ {
		if linkRadius(o3) <= half {
			below++
		}
	}
	if float64(below)/n < 0.9 {
		t.Fatalf("s=3 should be short-biased: only %g below rmax/2", float64(below)/n)
	}
}

func TestQuickOverlayChurnInvariants(t *testing.T) {
	// Property: any random operation sequence leaves a consistent overlay.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := New(Config{NMax: 500, Seed: seed})
		var ids []ObjectID
		for step := 0; step < 120; step++ {
			if len(ids) < 3 || rng.Float64() < 0.6 {
				id, err := o.Insert(geom.Pt(rng.Float64(), rng.Float64()))
				if err == nil {
					ids = append(ids, id)
				}
			} else {
				i := rng.Intn(len(ids))
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if err := o.Remove(id); err != nil {
					t.Logf("remove: %v", err)
					return false
				}
			}
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoutingAlwaysArrives(t *testing.T) {
	// Property: greedy object routing arrives on any overlay built from
	// any distribution mix.
	f := func(seed int64, mix uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var src workload.Source
		switch mix % 4 {
		case 0:
			src = &workload.Uniform{Rand: rng}
		case 1:
			src = workload.NewPowerLaw(2, rng)
		case 2:
			src = workload.NewClusters(3, 0.01, rng)
		default:
			src = workload.NewPowerLaw(5, rng)
		}
		o := New(Config{NMax: 400, Seed: seed})
		var ids []ObjectID
		for len(ids) < 150 {
			if id, err := o.Insert(src.Next()); err == nil {
				ids = append(ids, id)
			}
		}
		for q := 0; q < 30; q++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if _, err := o.RouteToObject(a, b); err != nil {
				t.Logf("route: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func TestJoinIntoTinyOverlays(t *testing.T) {
	// Join must work at every small size: 0 (bootstrap), 1, 2 (degenerate
	// dimension), 3 collinear objects.
	o := newTestOverlay(100)
	positions := []geom.Point{
		{X: 0.5, Y: 0.5},           // bootstrap
		{X: 0.25, Y: 0.5},          // dim 1
		{X: 0.75, Y: 0.5},          // still dim 1 (collinear)
		{X: 0.1, Y: 0.5},           // still collinear
		{X: 0.5, Y: 0.9},           // dimension jump
		{X: 0.5, Y: 0.50000000001}, // near-degenerate
	}
	var last ObjectID = NoObject
	for i, p := range positions {
		id, err := o.Join(p, last)
		if err != nil {
			t.Fatalf("join %d (%v): %v", i, p, err)
		}
		last = id
		if err := o.CheckInvariants(true); err != nil {
			t.Fatalf("after join %d: %v", i, err)
		}
	}
	// Queries against the tiny overlay.
	res, err := o.HandleQuery(last, geom.Pt(0.26, 0.51))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := o.Owner(geom.Pt(0.26, 0.51), NoObject)
	if res.Owner != want && !o.equidistantOwners(geom.Pt(0.26, 0.51), res.Owner, want) {
		t.Fatalf("tiny overlay query: %d want %d", res.Owner, want)
	}
	// Drain to empty through Remove, verifying each step.
	var all []ObjectID
	o.ForEachObject(func(obj *Object) bool { all = append(all, obj.ID); return true })
	for _, id := range all {
		if err := o.Remove(id); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouteToPointFromOutsideSquare(t *testing.T) {
	// Long-link targets may fall outside the unit square; routing towards
	// them must behave (owner = nearest object).
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(103))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 300)
	targets := []geom.Point{
		{X: -0.5, Y: 0.5}, {X: 1.5, Y: 1.5}, {X: 0.5, Y: -1.2}, {X: 2.0, Y: -0.3},
	}
	for _, tgt := range targets {
		res, err := o.HandleQuery(ids[0], tgt)
		if err != nil {
			t.Fatalf("route to %v: %v", tgt, err)
		}
		want, _ := o.Owner(tgt, NoObject)
		if res.Owner != want && !o.equidistantOwners(tgt, res.Owner, want) {
			t.Fatalf("owner of %v: %d want %d", tgt, res.Owner, want)
		}
	}
}

func TestCountersAccounting(t *testing.T) {
	o := newTestOverlay(1000)
	rng := rand.New(rand.NewSource(104))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 200)
	o.ResetCounters()

	// A pure routing operation counts only greedy steps.
	h, err := o.RouteToObject(ids[0], ids[100])
	if err != nil {
		t.Fatal(err)
	}
	c := o.Counters()
	if c.GreedySteps != uint64(h) {
		t.Fatalf("greedy steps %d for %d hops", c.GreedySteps, h)
	}
	if c.MaintenanceMessages != 0 || c.FictiveInserts != 0 {
		t.Fatalf("routing must not incur maintenance: %+v", c)
	}

	// A removal counts maintenance messages (neighbourhood updates).
	o.ResetCounters()
	if err := o.Remove(ids[50]); err != nil {
		t.Fatal(err)
	}
	c = o.Counters()
	if c.MaintenanceMessages == 0 || c.Leaves != 1 {
		t.Fatalf("leave accounting: %+v", c)
	}
}
