package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"voronet/internal/geom"
	"voronet/internal/kleinberg"
	"voronet/internal/workload"
)

func newTestOverlay(nmax int) *Overlay {
	return New(Config{NMax: nmax, Seed: 1})
}

// linkRadius draws Choose-LRT's radius exactly as chooseLRTWith does.
func linkRadius(o *Overlay) float64 {
	return kleinberg.SampleRadius(o.dmin, math.Sqrt2, o.cfg.LongLinkExponent, o.rng.Float64())
}

func fill(t *testing.T, o *Overlay, src workload.Source, n int) []ObjectID {
	t.Helper()
	var ids []ObjectID
	for len(ids) < n {
		id, err := o.Insert(src.Next())
		if err != nil {
			if errors.Is(err, ErrDuplicate) {
				continue
			}
			t.Fatalf("Insert: %v", err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestInsertBasics(t *testing.T) {
	o := newTestOverlay(1000)
	id, err := o.Insert(geom.Pt(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 1 {
		t.Fatalf("Len=%d", o.Len())
	}
	if _, err := o.Insert(geom.Pt(0.5, 0.5)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	pos, err := o.Position(id)
	if err != nil || pos != geom.Pt(0.5, 0.5) {
		t.Fatalf("Position: %v %v", pos, err)
	}
	// Single object: its long link points to itself (it owns everything).
	ln, _ := o.LongNeighbors(id)
	if len(ln) != 1 || ln[0] != id {
		t.Fatalf("singleton long link: %v", ln)
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultDMin(t *testing.T) {
	// π·dmin²·NMax = 1.
	for _, n := range []int{100, 300000} {
		d := DefaultDMin(n)
		if got := math.Pi * d * d * float64(n); math.Abs(got-1) > 1e-12 {
			t.Fatalf("NMax=%d: π·dmin²·N = %g", n, got)
		}
	}
}

func TestViewsOnSmallOverlay(t *testing.T) {
	o := newTestOverlay(10000)
	rng := rand.New(rand.NewSource(2))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 300)
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}

	// Voronoi neighbourhood sizes: average strictly below 6 (planarity).
	total := 0
	for _, id := range ids {
		d, err := o.Degree(id)
		if err != nil {
			t.Fatal(err)
		}
		if d < 2 {
			t.Fatalf("object %d has degree %d", id, d)
		}
		total += d
	}
	if avg := float64(total) / float64(len(ids)); avg >= 6 {
		t.Fatalf("average degree %g >= 6", avg)
	}

	// Close neighbours are symmetric.
	for _, id := range ids {
		cn, _ := o.CloseNeighbors(id, nil)
		for _, cid := range cn {
			back, _ := o.CloseNeighbors(cid, nil)
			found := false
			for _, b := range back {
				if b == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cn not symmetric between %d and %d", id, cid)
			}
		}
	}
}

func TestLemma1MatchesGrid(t *testing.T) {
	// Lemma 1: the close neighbours of an object are found among its
	// Voronoi neighbours and their close neighbours. Use a dense overlay
	// relative to dmin so cn sets are non-trivial.
	o := New(Config{NMax: 50, Seed: 3}) // large dmin on purpose
	rng := rand.New(rand.NewSource(4))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 400)
	nonEmpty := 0
	for _, id := range ids {
		direct, _ := o.CloseNeighbors(id, nil)
		if len(direct) > 0 {
			nonEmpty++
		}
		if err := o.checkLemma1(id); err != nil {
			t.Fatal(err)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("test vacuous: no object has close neighbours")
	}
}

func TestRouteToObjectAlwaysArrives(t *testing.T) {
	for _, srcName := range []string{"uniform", "alpha5"} {
		o := newTestOverlay(5000)
		rng := rand.New(rand.NewSource(5))
		ids := fill(t, o, workload.ByName(srcName, rng), 2000)
		for q := 0; q < 300; q++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			hops, err := o.RouteToObject(a, b)
			if err != nil {
				t.Fatalf("%s: route %d->%d: %v", srcName, a, b, err)
			}
			if a == b && hops != 0 {
				t.Fatalf("self route took %d hops", hops)
			}
		}
	}
}

func TestRouteToPointFindsOwner(t *testing.T) {
	o := newTestOverlay(5000)
	rng := rand.New(rand.NewSource(6))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 1000)
	for q := 0; q < 200; q++ {
		from := ids[rng.Intn(len(ids))]
		p := geom.Pt(rng.Float64(), rng.Float64())
		res, err := o.HandleQuery(from, p)
		if err != nil {
			t.Fatal(err)
		}
		// The owner must be the nearest object (ground truth check).
		best, bestD := NoObject, math.Inf(1)
		for _, id := range ids {
			if d := geom.Dist2(o.objs[id].Pos, p); d < bestD {
				best, bestD = id, d
			}
		}
		if res.Owner != best && geom.Dist2(o.objs[res.Owner].Pos, p) != bestD {
			t.Fatalf("owner of %v: got %d (d=%g), want %d (d=%g)", p,
				res.Owner, geom.Dist2(o.objs[res.Owner].Pos, p), best, bestD)
		}
		// The stop object must satisfy Algorithm 5's stop condition.
		stop := o.objs[res.Stop]
		dCur := geom.Dist(p, stop.Pos)
		if dCur > o.DMin() {
			_, dz := o.vor.DistanceToRegion(stop.vert, p)
			if dz > dCur/3+1e-12 {
				t.Fatalf("stop condition violated: dz=%g dCur/3=%g", dz, dCur/3)
			}
		}
	}
}

func TestJoinMatchesInsertStructure(t *testing.T) {
	// A protocol Join must produce the same tessellation and valid views.
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(7))
	src := &workload.Uniform{Rand: rng}
	var last ObjectID = NoObject
	for i := 0; i < 300; i++ {
		id, err := o.Join(src.Next(), last)
		if err != nil {
			if errors.Is(err, ErrDuplicate) {
				continue
			}
			t.Fatalf("Join %d: %v", i, err)
		}
		last = id
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	c := o.Counters()
	if c.Joins != uint64(o.Len()) {
		t.Fatalf("joins=%d len=%d", c.Joins, o.Len())
	}
	if c.JoinRouteSteps == 0 || c.FictiveInserts == 0 || c.MaintenanceMessages == 0 {
		t.Fatalf("join accounting empty: %+v", c)
	}
	if c.Leaves != 0 {
		t.Fatalf("fictive removals leaked into Leaves: %d", c.Leaves)
	}
}

func TestChurnMaintainsInvariants(t *testing.T) {
	o := New(Config{NMax: 3000, Seed: 8, LongLinks: 2})
	rng := rand.New(rand.NewSource(9))
	src := workload.NewPowerLaw(2, rng)
	var ids []ObjectID
	for step := 0; step < 900; step++ {
		switch {
		case len(ids) < 5 || rng.Float64() < 0.55:
			id, err := o.Insert(src.Next())
			if err == nil {
				ids = append(ids, id)
			} else if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("step %d: %v", step, err)
			}
		case rng.Float64() < 0.5 && len(ids) > 2:
			// Protocol join interleaved with direct inserts.
			id, err := o.Join(src.Next(), ids[rng.Intn(len(ids))])
			if err == nil {
				ids = append(ids, id)
			} else if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("step %d join: %v", step, err)
			}
		default:
			i := rng.Intn(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if err := o.Remove(id); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
		}
		if step%60 == 0 {
			if err := o.CheckInvariants(true); err != nil {
				t.Fatalf("step %d (n=%d): %v", step, o.Len(), err)
			}
		}
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	// Drain.
	for _, id := range ids {
		if err := o.Remove(id); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if o.Len() != 0 {
		t.Fatalf("overlay not empty: %d", o.Len())
	}
}

func TestLongLinkRepairOnLeave(t *testing.T) {
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(10))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 500)

	// Remove the long-range neighbour of some object and verify the link
	// is re-established to the new owner of the target point.
	var who ObjectID = NoObject
	for _, id := range ids {
		ln, _ := o.LongNeighbors(id)
		if ln[0] != id && ln[0] != NoObject {
			who = id
			break
		}
	}
	if who == NoObject {
		t.Fatal("no object with a foreign long link")
	}
	ln, _ := o.LongNeighbors(who)
	victim := ln[0]
	if err := o.Remove(victim); err != nil {
		t.Fatal(err)
	}
	ln2, _ := o.LongNeighbors(who)
	if ln2[0] == victim {
		t.Fatal("long link still names the departed object")
	}
	tgts, _ := o.LongTargets(who)
	owner, err := o.Owner(tgts[0], who)
	if err != nil {
		t.Fatal(err)
	}
	if ln2[0] != owner && !o.equidistantOwners(tgts[0], ln2[0], owner) {
		t.Fatalf("repaired link %d is not the owner %d of the target", ln2[0], owner)
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestHandleQuery(t *testing.T) {
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(11))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 400)
	o.ResetCounters()
	for q := 0; q < 100; q++ {
		from := ids[rng.Intn(len(ids))]
		p := geom.Pt(rng.Float64(), rng.Float64())
		res, err := o.HandleQuery(from, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := o.Owner(p, NoObject)
		if res.Owner != want && !o.equidistantOwners(p, res.Owner, want) {
			t.Fatalf("query owner %d, want %d", res.Owner, want)
		}
	}
	// Queries resolve the owner read-only: counted, and no fictive object
	// is ever inserted for one.
	if c := o.Counters(); c.Queries != 100 || c.FictiveInserts != 0 {
		t.Fatalf("100 queries counted %d, with %d fictive inserts", c.Queries, c.FictiveInserts)
	}
	if _, err := o.HandleQuery(999999, geom.Pt(0.5, 0.5)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown origin: %v", err)
	}
	if o.Len() != len(ids) {
		t.Fatalf("queries changed the overlay size: %d != %d", o.Len(), len(ids))
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestRangeQuery(t *testing.T) {
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(12))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 500)
	a, b := geom.Pt(0.1, 0.4), geom.Pt(0.9, 0.4)
	got, st, err := o.RangeQuery(ids[0], a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty range result")
	}
	// Ground truth: objects whose region intersects the segment = owners of
	// densely sampled points of the segment.
	want := map[ObjectID]bool{}
	for s := 0; s <= 4000; s++ {
		f := float64(s) / 4000
		p := geom.Pt(a.X+(b.X-a.X)*f, a.Y+(b.Y-a.Y)*f)
		id, _ := o.Owner(p, NoObject)
		want[id] = true
	}
	gotSet := map[ObjectID]bool{}
	for _, id := range got {
		gotSet[id] = true
	}
	for id := range want {
		if !gotSet[id] {
			t.Fatalf("range query missed owner %d", id)
		}
	}
	// Results must be ordered along the segment.
	for i := 1; i < len(got); i++ {
		pi := o.objs[got[i-1]].Pos.X
		pj := o.objs[got[i]].Pos.X
		if pi > pj {
			t.Fatal("range result not ordered along the segment")
		}
	}
	if st.Visited < len(got) {
		t.Fatalf("stats: visited %d < results %d", st.Visited, len(got))
	}
}

func TestRadiusQuery(t *testing.T) {
	o := newTestOverlay(2000)
	rng := rand.New(rand.NewSource(13))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 600)
	centre := geom.Pt(0.5, 0.5)
	r := 0.15
	got, _, err := o.RadiusQuery(ids[0], centre, r)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ObjectID]bool{}
	for _, id := range ids {
		if geom.Dist(o.objs[id].Pos, centre) <= r {
			want[id] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("radius query: %d results, want %d", len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("radius query returned %d outside the disk", id)
		}
	}
	// Ordered by distance.
	for i := 1; i < len(got); i++ {
		if geom.Dist2(o.objs[got[i-1]].Pos, centre) > geom.Dist2(o.objs[got[i]].Pos, centre) {
			t.Fatal("radius result not ordered by distance")
		}
	}
}

func TestMultipleLongLinks(t *testing.T) {
	o := New(Config{NMax: 2000, LongLinks: 5, Seed: 14})
	rng := rand.New(rand.NewSource(15))
	ids := fill(t, o, &workload.Uniform{Rand: rng}, 500)
	for _, id := range ids {
		ln, _ := o.LongNeighbors(id)
		if len(ln) != 5 {
			t.Fatalf("object %d has %d long links", id, len(ln))
		}
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestAblationConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}

	// No long links: routing still arrives (pure Delaunay greedy).
	o := New(Config{NMax: 2000, Seed: 17, DisableLongLinks: true})
	var ids []ObjectID
	for _, p := range pts {
		if id, err := o.Insert(p); err == nil {
			ids = append(ids, id)
		}
	}
	for q := 0; q < 100; q++ {
		if _, err := o.RouteToObject(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatalf("no-long-link routing: %v", err)
		}
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}

	// No close neighbours: routing still arrives (vn alone guarantees
	// progress); cn affects the poly-log bound, not termination.
	o2 := New(Config{NMax: 2000, Seed: 18, DisableCloseNeighbours: true})
	ids = ids[:0]
	for _, p := range pts {
		if id, err := o2.Insert(p); err == nil {
			ids = append(ids, id)
		}
	}
	for q := 0; q < 100; q++ {
		if _, err := o2.RouteToObject(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]); err != nil {
			t.Fatalf("no-cn routing: %v", err)
		}
	}
}

func TestLongLinkRadiusDistribution(t *testing.T) {
	// For s = 2 the radius is log-uniform on [dmin, √2]: the median must be
	// close to exp((ln dmin + ln √2)/2) = sqrt(dmin·√2).
	o := newTestOverlay(10000)
	n := 20000
	var count int
	median := math.Sqrt(o.DMin() * math.Sqrt2)
	for i := 0; i < n; i++ {
		if linkRadius(o) < median {
			count++
		}
	}
	frac := float64(count) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("log-uniform median check failed: %g below theoretical median", frac)
	}
	// Bounds.
	for i := 0; i < 1000; i++ {
		r := linkRadius(o)
		if r < o.DMin()-1e-15 || r > math.Sqrt2+1e-12 {
			t.Fatalf("radius %g out of [dmin, √2]", r)
		}
	}
}

func TestChooseLRTLemma2(t *testing.T) {
	// Lemma 2: Pr[LRt in B(y, f·r)] is bounded below by πf²/(K(1+f)²)
	// independently of r. Empirically: the probability that the target
	// lands within distance d of the source scales like ln(d)/ln-range —
	// i.e. the radius CDF is log-linear. Check at three scales.
	o := newTestOverlay(100000)
	dmin := o.DMin()
	n := 50000
	counts := map[float64]int{0.01: 0, 0.1: 0, 1.0: 0}
	for i := 0; i < n; i++ {
		r := linkRadius(o)
		for d := range counts {
			if r <= d {
				counts[d]++
			}
		}
	}
	logRange := math.Log(math.Sqrt2) - math.Log(dmin)
	for d, c := range counts {
		want := (math.Log(d) - math.Log(dmin)) / logRange
		got := float64(c) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("CDF(%g): got %g, want %g", d, got, want)
		}
	}
}

func TestRemoveErrors(t *testing.T) {
	o := newTestOverlay(100)
	if err := o.Remove(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
	id, _ := o.Insert(geom.Pt(0.5, 0.5))
	if err := o.Remove(id); err != nil {
		t.Fatal(err)
	}
	if err := o.Remove(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestOwnerAndGreedyNeighborErrors(t *testing.T) {
	o := newTestOverlay(100)
	if _, err := o.Owner(geom.Pt(0.5, 0.5), NoObject); !errors.Is(err, ErrEmpty) {
		t.Fatalf("owner on empty overlay: %v", err)
	}
	if _, err := o.GreedyNeighbor(7, geom.Pt(0, 0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("greedy neighbour of missing object: %v", err)
	}
	id, _ := o.Insert(geom.Pt(0.25, 0.25))
	n, err := o.GreedyNeighbor(id, geom.Pt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Singleton with a self long-link: no other neighbour exists.
	if n != NoObject {
		t.Fatalf("singleton greedy neighbour: %d", n)
	}
}

// TestObjectRecordSize keeps the per-object record at what it is without a
// long-neighbour slice of its own (104 bytes before).
func TestObjectRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Object{}); n > 80 {
		t.Fatalf("Object is %d bytes, want <= 80", n)
	}
}
