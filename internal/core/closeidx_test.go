package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"voronet/internal/geom"
)

// TestCloseNeighborsMatchBruteForce checks cn(o) from the grid against an
// all-pairs scan where the grid's arithmetic has edges: sites exactly on
// cell borders with a partner exactly dmin away, at the corners of the
// unit square, outside it (where keys clamp into the border cells), and
// with a dmin so small that the cell width is the 1/(2·√NMax) floor
// instead — before and after half the objects are removed again.
func TestCloseNeighborsMatchBruteForce(t *testing.T) {
	const nmax = 400
	for _, tc := range []struct {
		name string
		dmin float64
	}{
		{"default", 0},
		{"wide", 0.11},
		{"tiny", 1e-9},
	} {
		o := New(Config{NMax: nmax, DMin: tc.dmin, Seed: 7})
		if bound := 4*nmax + 4*int(math.Sqrt(nmax)) + 1; len(o.grid.head) > bound {
			t.Fatalf("%s: %d cell heads, want <= %d", tc.name, len(o.grid.head), bound)
		}
		r, cell := o.dmin, o.grid.cell
		if r > cell {
			t.Fatalf("%s: radius %g exceeds the cell width %g", tc.name, r, cell)
		}
		var pts []geom.Point
		pair := func(p geom.Point) {
			pts = append(pts, p, geom.Pt(p.X+r, p.Y), geom.Pt(p.X-r/2, p.Y+r/2))
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				pair(geom.Pt(float64(i)*cell, float64(j)*cell))
				pair(geom.Pt(1-float64(i)*cell, 1-float64(j)*cell))
			}
		}
		for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1},
			{X: -0.4, Y: -0.4}, {X: 1.3, Y: 0.5}, {X: 0.5, Y: -0.25}, {X: 1.6, Y: 1.6}, {X: 1 + r/2, Y: 1 + r/2}} {
			pair(p)
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 300; i++ {
			pair(geom.Pt(2*rng.Float64()-0.5, 2*rng.Float64()-0.5))
		}

		pos := map[ObjectID]geom.Point{}
		var ids []ObjectID
		for _, p := range pts {
			id, err := o.Insert(p)
			if errors.Is(err, ErrDuplicate) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: insert %v: %v", tc.name, p, err)
			}
			pos[id] = p
			ids = append(ids, id)
		}
		check := func(stage string) {
			t.Helper()
			close := 0
			for _, a := range ids {
				var want []ObjectID
				for _, b := range ids {
					if b != a && geom.Dist2(pos[a], pos[b]) <= r*r {
						want = append(want, b)
					}
				}
				got, err := o.CloseNeighbors(a, nil)
				if err != nil {
					t.Fatal(err)
				}
				sortIDs(got)
				if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: cn(%d at %v) = %v, brute force %v", tc.name, stage, a, pos[a], got, want)
				}
				close += len(want)
			}
			if close == 0 {
				t.Fatalf("%s %s: no close pair at all", tc.name, stage)
			}
			if err := o.CheckInvariants(true); err != nil {
				t.Fatalf("%s %s: %v", tc.name, stage, err)
			}
		}
		check("built")
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids[len(ids)/2:] {
			if err := o.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		ids = ids[:len(ids)/2]
		sortIDs(ids)
		check("after removals")
	}
}

func sortIDs(s []ObjectID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
