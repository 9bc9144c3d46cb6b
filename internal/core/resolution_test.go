package core

import (
	"math/rand"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/workload"
)

// TestOwnerResolutionEquivalence is the property behind the mutation-free
// read path: for any overlay and any query point, the owner named by the
// read-only nearest-site walk from the stopping object equals the owner
// named by the paper's fictive insert/remove dance (Algorithm 4), modulo
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
	fict, err := o.resolveByFictive(cur, p)
	if err != nil {
		t.Fatalf("%s: fictive resolution at %v: %v", label, p, err)
	}
	if fast != fict && !o.equidistantOwners(p, fast, fict) {
		t.Fatalf("%s: owner of %v: fast path %d (d=%g), fictive %d (d=%g)",
			label, p, fast, geom.Dist2(o.objs[fast].Pos, p), fict, geom.Dist2(o.objs[fict].Pos, p))
	}
}
