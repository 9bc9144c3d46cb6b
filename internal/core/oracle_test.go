package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/workload"
)

// The literal fictive-object protocol of Algorithms 1 and 2, done for real:
// each fictive object is inserted into the triangulation, the grid and the
// object tables (insertBase) and removed again (remove). join and
// searchLongLink only charge what this costs; the tests hold the charge to
// the oracle.

// literalInsert inserts a fictive object at p and returns NoObject when
// the site is taken. A fictive object does tessellation surgery and
// nothing else: it never takes a BLRn entry (no takeOver), so its removal
// has none to re-delegate.
func literalInsert(o *Overlay, p geom.Point, hint delaunay.VertexID) ObjectID {
	id, _, err := o.insertBase(p, hint)
	if err != nil {
		return NoObject
	}
	o.counters.FictiveInserts++
	return id
}

// literalRemove removes a fictive object: remove charges its ring and its
// close neighbours, and the removal is no protocol leave.
func literalRemove(o *Overlay, id ObjectID) error {
	if err := o.remove(id); err != nil {
		return err
	}
	o.counters.Leaves--
	return nil
}

// literalOwner is Algorithm 2 from the stopping vertex cur on: insert z at
// DistanceToRegion(tgt) (if needed) and the Target at tgt, remove z, read
// off the Target's nearest Voronoi neighbour, and remove the Target. z
// leaves first, as in Algorithm 4: with z gone, the Target's nearest
// neighbour is the owner of tgt, where z could shadow it.
func literalOwner(o *Overlay, cur delaunay.VertexID, tgt geom.Point) (ObjectID, error) {
	z, dz := o.fictiveSite(cur, tgt)
	zID, hint := NoObject, cur
	if dz > 0 {
		if zID = literalInsert(o, z, cur); zID != NoObject {
			hint = o.objs[zID].vert
		}
	}
	tID := literalInsert(o, tgt, hint)
	if zID != NoObject {
		if err := literalRemove(o, zID); err != nil {
			return NoObject, err
		}
	}
	owner := NoObject
	if tID != NoObject {
		best := 0.0
		for _, v := range o.tr.Neighbors(o.objs[tID].vert, nil) {
			if d := geom.Dist2(o.tr.Point(v), tgt); owner == NoObject || d < best {
				owner, best = o.byVertex[v], d
			}
		}
		if err := literalRemove(o, tID); err != nil {
			return NoObject, err
		}
	}
	if owner == NoObject {
		// tgt coincided with an object.
		var v delaunay.VertexID
		v, _ = o.tr.NearestSiteRO(tgt, cur, nil)
		owner = o.byVertex[v]
	}
	return owner, nil
}

// literalJoinBase is Algorithm 1 from the stopping vertex on: insert z at
// DistanceToRegion(p) (if needed), insert the joiner from z, remove z.
func literalJoinBase(o *Overlay, stop delaunay.VertexID, p geom.Point) (ObjectID, error) {
	z, dz := o.fictiveSite(stop, p)
	zID, hint := NoObject, stop
	if dz > 0 {
		if zID = literalInsert(o, z, stop); zID != NoObject {
			hint = o.objs[zID].vert
		}
	}
	id, _, err := o.insertBase(p, hint)
	if zID != NoObject {
		if rerr := literalRemove(o, zID); rerr != nil {
			return NoObject, rerr
		}
	}
	return id, err
}

// chargeDelta is what one step moved: the counters the charge writes and
// the next object ID.
type chargeDelta struct {
	fictive, maint, leaves uint64
	ids                    ObjectID
}

func deltaSince(o *Overlay, c Counters, next ObjectID) chargeDelta {
	return chargeDelta{
		fictive: o.counters.FictiveInserts - c.FictiveInserts,
		maint:   o.counters.MaintenanceMessages - c.MaintenanceMessages,
		leaves:  o.counters.Leaves - c.Leaves,
		ids:     o.nextID - next,
	}
}

// oracleTally counts what a property run covered.
type oracleTally struct {
	searches, exterior, stones, joins, stoneJoins, dupStoneJoins int
}

// checkSearchCharge prices the search for tgt from the stopping vertex
// both ways on the same overlay — the probe first, then, from the same
// counters and next ID, the oracle — and requires equal charges and the
// same owner, modulo a tie between equidistant objects.
func checkSearchCharge(t *testing.T, o *Overlay, stop delaunay.VertexID, tgt geom.Point, label string, n *oracleTally) {
	t.Helper()
	c0, next0 := o.counters, o.nextID
	got := o.fictiveOwner(stop, tgt)
	probe := deltaSince(o, c0, next0)
	o.counters, o.nextID = c0, next0
	want, err := literalOwner(o, stop, tgt)
	if err != nil {
		t.Fatalf("%s: literal search for %v: %v", label, tgt, err)
	}
	if literal := deltaSince(o, c0, next0); probe != literal {
		t.Fatalf("%s: search for %v from %d charged %+v, the literal protocol %+v",
			label, tgt, o.byVertex[stop], probe, literal)
	}
	if got != want && !o.equidistantOwners(tgt, got, want) {
		t.Fatalf("%s: search for %v: probe names %d, the literal protocol %d", label, tgt, got, want)
	}
	n.searches++
	if probe.fictive == 2 {
		n.stones++
	}
	if !tgt.InUnitSquare() {
		n.exterior++
	}
}

// checkJoinCharge inserts a joiner at p behind its stepping-stone both
// ways, taking each joiner out again before the next, and requires the
// same ID or the same refusal and equal charges.
func checkJoinCharge(t *testing.T, o *Overlay, stop delaunay.VertexID, p geom.Point, label string, n *oracleTally) {
	t.Helper()
	c0, next0 := o.counters, o.nextID
	gotID, _, gotErr := o.insertBehindStone(stop, p)
	probe := deltaSince(o, c0, next0)
	if gotErr == nil {
		if err := o.remove(gotID); err != nil {
			t.Fatal(err)
		}
	}
	o.counters, o.nextID = c0, next0
	wantID, wantErr := literalJoinBase(o, stop, p)
	literal := deltaSince(o, c0, next0)
	if wantErr == nil {
		if err := o.remove(wantID); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(gotErr, wantErr) || gotID != wantID || probe != literal {
		t.Fatalf("%s: join at %v from %d: probe %d (%v) charged %+v, the literal protocol %d (%v) %+v",
			label, p, o.byVertex[stop], gotID, gotErr, probe, wantID, wantErr, literal)
	}
	n.joins++
	if probe.fictive == 1 {
		n.stoneJoins++
		if gotErr != nil {
			n.dupStoneJoins++
		}
	}
}

// TestFictiveChargeMatchesOracle holds what join and searchLongLink charge
// for their fictive objects to the literal protocol that inserts and
// removes them: fictive insertions, maintenance messages, leaves and
// object IDs, and the owner each search names. It covers uniform, α = 2
// and α = 5 power-law and clustered overlays, the exterior and ring
// hand-over scenarios and the overlays of dimension < 2, with long-link
// targets drawn as a join draws them, points in the square and points up
// to half a side outside it, and joiners at free positions and at
// occupied ones.
func TestFictiveChargeMatchesOracle(t *testing.T) {
	type overlay struct {
		name string
		o    *Overlay
		live []ObjectID
		rng  *rand.Rand
	}
	var overlays []overlay
	for _, src := range []struct {
		name string
		mk   func(rng *rand.Rand) workload.Source
	}{
		{"uniform", func(rng *rand.Rand) workload.Source { return &workload.Uniform{Rand: rng} }},
		{"alpha2", func(rng *rand.Rand) workload.Source { return workload.NewPowerLaw(2, rng) }},
		{"alpha5", func(rng *rand.Rand) workload.Source { return workload.NewPowerLaw(5, rng) }},
		{"clusters", func(rng *rand.Rand) workload.Source { return workload.NewClusters(3, 0.01, rng) }},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed * 1000))
			o := New(Config{NMax: 1500, Seed: seed})
			ids := fill(t, o, src.mk(rng), 350)
			overlays = append(overlays, overlay{fmt.Sprintf("%s/seed%d", src.name, seed), o, ids, rng})
		}
	}
	for _, sc := range handOverScenarios[1:] {
		o, live, rng := sc.build(t, 1)
		overlays = append(overlays, overlay{sc.name, o, live, rng})
	}
	for li, pts := range [][]geom.Point{
		{{X: 0.5, Y: 0.5}},
		{{X: 0.25, Y: 0.5}, {X: 0.75, Y: 0.5}},
		{{X: 0.1, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.5}},
		{{X: 0.2, Y: 0.2}, {X: 0.5, Y: 0.5}, {X: 0.8, Y: 0.8}},
	} {
		o := New(Config{NMax: 100, Seed: int64(li)})
		var ids []ObjectID
		for _, p := range pts {
			id, err := o.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		overlays = append(overlays, overlay{fmt.Sprintf("dim<2/%d", li), o, ids, rand.New(rand.NewSource(77))})
	}

	var total oracleTally
	for _, ov := range overlays {
		o, rng := ov.o, ov.rng
		from := func() *Object { return o.objs[ov.live[rng.Intn(len(ov.live))]] }
		route := func(src *Object, p geom.Point) delaunay.VertexID {
			stop, _, err := o.routeToPoint(&o.rt, src.vert, p)
			if err != nil {
				t.Fatalf("%s: route to %v: %v", ov.name, p, err)
			}
			return stop
		}
		for q := 0; q < 150; q++ {
			src := from()
			var tgt geom.Point
			switch q % 3 {
			case 0:
				tgt = o.chooseLRT(src.Pos)
			case 1:
				tgt = geom.Pt(rng.Float64(), rng.Float64())
			default:
				tgt = geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
			}
			checkSearchCharge(t, o, route(src, tgt), tgt, ov.name, &total)
		}
		for q := 0; q < 40; q++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			if q%4 == 0 {
				p = o.objs[ov.live[rng.Intn(len(ov.live))]].Pos // taken
			}
			checkJoinCharge(t, o, route(from(), p), p, ov.name, &total)
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Fatalf("%s: %v", ov.name, err)
		}
	}
	t.Logf("%d searches (%d exterior, %d behind a stepping-stone), %d joins (%d behind one, %d of them refused)",
		total.searches, total.exterior, total.stones, total.joins, total.stoneJoins, total.dupStoneJoins)
	if total.exterior < total.searches/4 || total.stones < total.searches/4 ||
		total.stoneJoins < total.joins/4 || total.dupStoneJoins == 0 {
		t.Fatalf("coverage too thin: %+v", total)
	}
}
