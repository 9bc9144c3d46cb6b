package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/workload"
)

// TestOwnerResolutionEquivalence is the property behind the mutation-free
// read path: for any overlay and any query point, the owner named by the
// read-only nearest-site walk from the stopping object equals the owner
// named by the paper's fictive insert/remove dance (Algorithm 4, done for
// real by the test oracle literalOwner), modulo
// genuine ties (a point equidistant from two objects lies on a region
// boundary — either is a correct Obj(target)). Checked across seeds,
// distributions and query points inside and outside the square.
func TestOwnerResolutionEquivalence(t *testing.T) {
	sources := []struct {
		name string
		mk   func(rng *rand.Rand) workload.Source
	}{
		{"uniform", func(rng *rand.Rand) workload.Source { return &workload.Uniform{Rand: rng} }},
		{"alpha2", func(rng *rand.Rand) workload.Source { return workload.NewPowerLaw(2, rng) }},
		{"alpha5", func(rng *rand.Rand) workload.Source { return workload.NewPowerLaw(5, rng) }},
		{"clusters", func(rng *rand.Rand) workload.Source { return workload.NewClusters(3, 0.01, rng) }},
	}
	for _, src := range sources {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 1000))
			o := New(Config{NMax: 1500, Seed: seed})
			ids := fill(t, o, src.mk(rng), 350)
			for q := 0; q < 120; q++ {
				from := ids[rng.Intn(len(ids))]
				// Every third query leaves the unit square (long-link
				// targets do too; §4.3.2).
				p := geom.Pt(rng.Float64(), rng.Float64())
				if q%3 == 0 {
					p = geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
				}
				checkResolutionAgreement(t, o, from, p, src.name)
			}
			if err := o.CheckInvariants(true); err != nil {
				t.Fatalf("%s seed %d: %v", src.name, seed, err)
			}
		}
	}
}

// TestOwnerResolutionEquivalenceDegenerate covers the overlays where the
// tessellation has dimension < 2: a singleton, two objects, and a
// collinear chain, where regions are halfplanes and slabs.
func TestOwnerResolutionEquivalenceDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	layouts := [][]geom.Point{
		{{X: 0.5, Y: 0.5}},
		{{X: 0.25, Y: 0.5}, {X: 0.75, Y: 0.5}},
		{{X: 0.1, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.5}},
		{{X: 0.2, Y: 0.2}, {X: 0.5, Y: 0.5}, {X: 0.8, Y: 0.8}}, // diagonal chain
	}
	for li, pts := range layouts {
		o := New(Config{NMax: 100, Seed: int64(li)})
		var ids []ObjectID
		for _, p := range pts {
			id, err := o.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for q := 0; q < 60; q++ {
			p := geom.Pt(rng.Float64()*1.6-0.3, rng.Float64()*1.6-0.3)
			checkResolutionAgreement(t, o, ids[rng.Intn(len(ids))], p, "degenerate")
		}
	}
}

// checkResolutionAgreement routes from `from` towards p once, then
// resolves the owner both ways from the same stopping object and compares.
func checkResolutionAgreement(t *testing.T, o *Overlay, from ObjectID, p geom.Point, label string) {
	t.Helper()
	cur, _, err := o.routeToPoint(&o.rt, o.objs[from].vert, p)
	if err != nil {
		t.Fatalf("%s: route to %v: %v", label, p, err)
	}
	fastV, _ := o.tr.NearestSiteRO(p, cur, nil)
	fast := o.byVertex[fastV]
	fict, err := literalOwner(o, cur, p)
	if err != nil {
		t.Fatalf("%s: fictive resolution at %v: %v", label, p, err)
	}
	if fast != fict && !o.equidistantOwners(p, fast, fict) {
		t.Fatalf("%s: owner of %v: fast path %d (d=%g), fictive %d (d=%g)",
			label, p, fast, geom.Dist2(o.objs[fast].Pos, p), fict, geom.Dist2(o.objs[fict].Pos, p))
	}
}

// TestWalkStartMatchesScan checks the walks that start beside their
// target (walkStart) against an all-sites scan: owners named by Owner and
// Router.Owner, and every long-link holder that insert and BulkLoad
// resolved. It covers dense overlays (uniform and α = 5, built both ways),
// targets outside the square out to √2 that clamp into border cells, a
// sparse overlay whose grid runs past maxNearRings so that both of
// walkStart's branches run, and 1–3-object and collinear overlays.
func TestWalkStartMatchesScan(t *testing.T) {
	type overlay struct {
		name   string
		o      *Overlay
		sparse bool // the grid misses as well as hits
	}
	var overlays []overlay
	for _, alpha := range []float64{0, 5} {
		for _, bulk := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(alpha) + 41))
			var src workload.Source = &workload.Uniform{Rand: rng}
			if alpha > 0 {
				src = workload.NewPowerLaw(alpha, rng)
			}
			o := New(Config{NMax: 3000, Seed: 9})
			if bulk {
				pts := make([]geom.Point, 3000)
				for i := range pts {
					pts[i] = src.Next()
				}
				if _, err := o.BulkLoad(pts, 2); err != nil {
					t.Fatal(err)
				}
			} else {
				fill(t, o, src, 3000)
			}
			overlays = append(overlays, overlay{name: fmt.Sprintf("alpha%g/bulk=%v", alpha, bulk), o: o})
		}
	}
	sparse := New(Config{NMax: 1 << 20, Seed: 10})
	fill(t, sparse, &workload.Uniform{Rand: rand.New(rand.NewSource(43))}, 400)
	overlays = append(overlays, overlay{name: "sparse", o: sparse, sparse: true})
	for li, pts := range [][]geom.Point{
		{{X: 0.5, Y: 0.5}},
		{{X: 0.25, Y: 0.5}, {X: 0.75, Y: 0.5}},
		{{X: 0.1, Y: 0.3}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.7}},
		{{X: 0.1, Y: 0.5}, {X: 0.3, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0.7, Y: 0.5}, {X: 0.9, Y: 0.5}},
	} {
		o := New(Config{NMax: 100, Seed: int64(li)})
		for _, p := range pts {
			if _, err := o.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		overlays = append(overlays, overlay{name: fmt.Sprintf("tiny%d", len(pts)), o: o})
	}

	rng := rand.New(rand.NewSource(44))
	for _, ov := range overlays {
		o := ov.o
		r := o.NewRouter()
		hits, misses := 0, 0
		for q := 0; q < 600; q++ {
			// A point in the square, then every other one pushed out by
			// up to √2, as far as a long-link target goes.
			p := geom.Pt(rng.Float64(), rng.Float64())
			if q%2 == 1 {
				a, d := rng.Float64()*2*math.Pi, rng.Float64()*math.Sqrt2
				p = geom.Pt(p.X+d*math.Cos(a), p.Y+d*math.Sin(a))
			}
			if o.grid.near(p, len(o.ids)) == delaunay.NoVertex {
				misses++
			} else {
				hits++
			}
			want := scanOwner(o, p)
			hint := o.ids[rng.Intn(len(o.ids))]
			for _, owner := range []func(geom.Point, ObjectID) (ObjectID, error){o.Owner, r.Owner} {
				got, err := owner(p, hint)
				if err != nil {
					t.Fatalf("%s: Owner(%v): %v", ov.name, p, err)
				}
				if got != want && !o.equidistantOwners(p, got, want) {
					t.Fatalf("%s: Owner(%v) = %d, the scan names %d", ov.name, p, got, want)
				}
			}
		}
		if hits == 0 || ov.sparse && misses == 0 {
			t.Fatalf("%s: the grid seeded %d walks and missed %d", ov.name, hits, misses)
		}
		for _, id := range o.ids {
			obj := o.objs[id]
			for j, tgt := range obj.longTargets {
				if got, want := o.longNeighbor(obj, j), scanOwner(o, tgt); got != want && !o.equidistantOwners(tgt, got, want) {
					t.Fatalf("%s: object %d link %d held by %d, the scan names %d", ov.name, id, j, got, want)
				}
			}
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Fatalf("%s: %v", ov.name, err)
		}
	}
}

// scanOwner is Obj(p) by brute force: the live object nearest p.
func scanOwner(o *Overlay, p geom.Point) ObjectID {
	best, bestD := NoObject, math.Inf(1)
	for _, id := range o.ids {
		if d := geom.Dist2(o.objs[id].Pos, p); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// TestNonFinitePositionsRejected: a NaN or infinite coordinate is an
// error of its own at every entry point that takes a position, never a
// duplicate, never an owner, and it leaves the overlay as it was.
func TestNonFinitePositionsRejected(t *testing.T) {
	bad := []geom.Point{
		geom.Pt(math.NaN(), 0.5), geom.Pt(0.5, math.NaN()),
		geom.Pt(math.Inf(1), 0.5), geom.Pt(0.5, math.Inf(-1)),
	}
	for _, empty := range []bool{true, false} {
		o := New(Config{NMax: 100, Seed: 1})
		if !empty {
			fill(t, o, &workload.Uniform{Rand: rand.New(rand.NewSource(2))}, 20)
		}
		n := o.Len()
		for _, p := range bad {
			if _, err := o.Insert(p); err == nil || errors.Is(err, ErrDuplicate) {
				t.Fatalf("Insert(%v) on %d objects: %v", p, n, err)
			}
			if _, err := o.Join(p, NoObject); err == nil || errors.Is(err, ErrDuplicate) {
				t.Fatalf("Join(%v) on %d objects: %v", p, n, err)
			}
			for _, owner := range []func(geom.Point, ObjectID) (ObjectID, error){o.Owner, o.NewRouter().Owner} {
				if id, err := owner(p, NoObject); err == nil || errors.Is(err, ErrEmpty) || id != NoObject {
					t.Fatalf("Owner(%v) on %d objects: %d, %v", p, n, id, err)
				}
			}
		}
		pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.2, 0.2), geom.Pt(0.3, 0.3), bad[2]}
		if ids, err := o.BulkLoad(pts, 1); err == nil || ids != nil || !strings.Contains(err.Error(), "point 3") {
			t.Fatalf("BulkLoad with a non-finite point 3 on %d objects: %v, %v", n, ids, err)
		}
		if o.Len() != n {
			t.Fatalf("rejected positions changed the overlay: %d objects, want %d", o.Len(), n)
		}
		if err := o.CheckInvariants(true); err != nil {
			t.Fatal(err)
		}
	}
}
