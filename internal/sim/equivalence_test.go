package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/stats"
	"voronet/internal/workload"
)

// TestInsertBuildEquivalentToJoinBuild validates the experiment engine's
// central shortcut: figures are generated from overlays built with direct
// inserts, on the argument (DESIGN.md) that a protocol Join produces the
// same tessellation and the same long-link distribution. Here we build two
// overlays from the same position stream — one with Insert, one with the
// full Algorithm-1 Join — and require identical degree statistics and
// statistically indistinguishable route lengths.
func TestInsertBuildEquivalentToJoinBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 4000
	posRng := rand.New(rand.NewSource(71))
	src := workload.ByName("alpha2", posRng)
	positions := make([]geom.Point, 0, n)
	for len(positions) < n {
		positions = append(positions, src.Next())
	}

	build := func(useJoin bool) *core.Overlay {
		ov := core.New(core.Config{NMax: n, Seed: 72})
		var last core.ObjectID = core.NoObject
		for _, p := range positions {
			var id core.ObjectID
			var err error
			if useJoin {
				id, err = ov.Join(p, last)
			} else {
				id, err = ov.Insert(p)
			}
			if err != nil {
				if errors.Is(err, core.ErrDuplicate) {
					continue
				}
				t.Fatal(err)
			}
			last = id
		}
		return ov
	}
	a := build(false)
	b := build(true)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}

	// Identical tessellations: degree histograms must match bucket for
	// bucket (the Delaunay triangulation of a point set is unique for
	// points in general position).
	ha, hb := stats.NewHistogram(), stats.NewHistogram()
	a.ForEachObject(func(o *core.Object) bool {
		d, _ := a.Degree(o.ID)
		ha.Add(d)
		return true
	})
	b.ForEachObject(func(o *core.Object) bool {
		d, _ := b.Degree(o.ID)
		hb.Add(d)
		return true
	})
	if ha.String() != hb.String() {
		t.Fatalf("degree histograms differ:\n%s\nvs\n%s", ha, hb)
	}

	// Long links are drawn from the same distribution but with different
	// RNG consumption patterns, so routes are compared statistically.
	measure := func(ov *core.Overlay, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var agg stats.Running
		for i := 0; i < 1500; i++ {
			x, _ := ov.RandomObject(rng)
			y, _ := ov.RandomObject(rng)
			if x == y {
				continue
			}
			h, err := ov.RouteToObject(x, y)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(float64(h))
		}
		return agg.Mean()
	}
	ma := measure(a, 73)
	mb := measure(b, 73)
	if math.Abs(ma-mb) > 0.15*math.Max(ma, mb) {
		t.Fatalf("route lengths diverge: insert-built %.2f vs join-built %.2f", ma, mb)
	}
	t.Logf("mean hops: insert-built %.2f, join-built %.2f", ma, mb)
}
