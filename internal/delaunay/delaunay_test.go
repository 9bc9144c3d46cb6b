package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"voronet/internal/geom"
)

func mustInsert(t *testing.T, tr *Triangulation, p geom.Point) VertexID {
	t.Helper()
	v, err := tr.Insert(p, NoVertex)
	if err != nil {
		t.Fatalf("Insert(%v): %v", p, err)
	}
	return v
}

func mustValidate(t *testing.T, tr *Triangulation, ctx string) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

func TestEmptyAndLowDimensions(t *testing.T) {
	tr := New()
	mustValidate(t, tr, "empty")
	if tr.Dimension() != -1 || tr.NumSites() != 0 {
		t.Fatalf("empty: dim=%d n=%d", tr.Dimension(), tr.NumSites())
	}

	a := mustInsert(t, tr, geom.Pt(0.5, 0.5))
	mustValidate(t, tr, "one site")
	if tr.Dimension() != 0 {
		t.Fatalf("dim after 1 site: %d", tr.Dimension())
	}
	if got, _ := tr.NearestSiteRO(geom.Pt(0.9, 0.9), NoVertex, nil); got != a {
		t.Fatalf("nearest with one site: %d", got)
	}

	b := mustInsert(t, tr, geom.Pt(0.7, 0.5))
	mustValidate(t, tr, "two sites")
	if tr.Dimension() != 1 {
		t.Fatalf("dim after 2 sites: %d", tr.Dimension())
	}
	if nb := tr.Neighbors(a, nil); len(nb) != 1 || nb[0] != b {
		t.Fatalf("chain neighbours of a: %v", nb)
	}

	// Collinear third and fourth points keep dimension 1.
	mustInsert(t, tr, geom.Pt(0.6, 0.5))
	mustInsert(t, tr, geom.Pt(0.1, 0.5))
	mustValidate(t, tr, "collinear chain")
	if tr.Dimension() != 1 {
		t.Fatalf("dim after collinear inserts: %d", tr.Dimension())
	}
	// Chain neighbours are line-adjacent sites.
	mid, _ := tr.NearestSiteRO(geom.Pt(0.61, 0.5), NoVertex, nil)
	if got := tr.Point(mid); got != geom.Pt(0.6, 0.5) {
		t.Fatalf("nearest on chain: %v", got)
	}
	if nb := tr.Neighbors(mid, nil); len(nb) != 2 {
		t.Fatalf("chain interior neighbours: %v", nb)
	}

	// Off-line point upgrades to a full triangulation.
	mustInsert(t, tr, geom.Pt(0.4, 0.9))
	mustValidate(t, tr, "dimension upgrade")
	if tr.Dimension() != 2 {
		t.Fatalf("dim after upgrade: %d", tr.Dimension())
	}
	if tr.NumSites() != 5 {
		t.Fatalf("site count after upgrade: %d", tr.NumSites())
	}
}

func TestDuplicateInsert(t *testing.T) {
	tr := New()
	a := mustInsert(t, tr, geom.Pt(0.2, 0.2))
	mustInsert(t, tr, geom.Pt(0.8, 0.2))
	mustInsert(t, tr, geom.Pt(0.5, 0.8))

	got, err := tr.Insert(geom.Pt(0.2, 0.2), NoVertex)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if got != a {
		t.Fatalf("duplicate should return existing id %d, got %d", a, got)
	}
	if tr.NumSites() != 3 {
		t.Fatalf("duplicate insert changed site count: %d", tr.NumSites())
	}
	mustValidate(t, tr, "after duplicate")

	// Duplicate in degenerate mode too.
	tr2 := New()
	b := mustInsert(t, tr2, geom.Pt(0.1, 0.1))
	if got, err := tr2.Insert(geom.Pt(0.1, 0.1), NoVertex); !errors.Is(err, ErrDuplicate) || got != b {
		t.Fatalf("low-dim duplicate: got %d, %v", got, err)
	}
}

func TestInsertOnEdgeAndVertexLocations(t *testing.T) {
	tr := New()
	mustInsert(t, tr, geom.Pt(0, 0))
	mustInsert(t, tr, geom.Pt(1, 0))
	mustInsert(t, tr, geom.Pt(0, 1))
	mustValidate(t, tr, "triangle")

	// Strictly inside.
	loc := tr.locate(geom.Pt(0.25, 0.25), NoVertex)
	if loc.Kind != LocFace {
		t.Fatalf("inside: kind %v", loc.Kind)
	}
	// On the interior of an edge.
	loc = tr.locate(geom.Pt(0.5, 0.5), NoVertex)
	if loc.Kind != LocEdge {
		t.Fatalf("on hypotenuse: kind %v", loc.Kind)
	}
	// On a vertex.
	loc = tr.locate(geom.Pt(1, 0), NoVertex)
	if loc.Kind != LocVertex {
		t.Fatalf("on vertex: kind %v", loc.Kind)
	}
	// Outside.
	loc = tr.locate(geom.Pt(2, 2), NoVertex)
	if loc.Kind != LocOutside {
		t.Fatalf("outside: kind %v", loc.Kind)
	}

	// Insert exactly on the hypotenuse.
	mustInsert(t, tr, geom.Pt(0.5, 0.5))
	mustValidate(t, tr, "on-edge insert")
	// Insert exactly on a hull edge's line, beyond the segment.
	mustInsert(t, tr, geom.Pt(2, 0))
	mustValidate(t, tr, "collinear outside insert")
	// And exactly between, on the hull edge.
	mustInsert(t, tr, geom.Pt(0.5, 0))
	mustValidate(t, tr, "on-hull-edge insert")
	if tr.NumSites() != 6 {
		t.Fatalf("site count %d", tr.NumSites())
	}
}

func TestCocircularGridInsert(t *testing.T) {
	// A k×k integer grid: every unit square is co-circular; the exact
	// predicates must keep the structure consistent.
	tr := New()
	const k = 8
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			mustInsert(t, tr, geom.Pt(float64(i), float64(j)))
		}
	}
	mustValidate(t, tr, "grid")
	if tr.NumSites() != k*k {
		t.Fatalf("sites: %d", tr.NumSites())
	}
}

func TestNeighborsAgainstBruteForce(t *testing.T) {
	// The Delaunay edge (u,v) exists iff some circle through u and v is
	// empty. Cross-check small random instances against an O(n^4)
	// brute-force Delaunay construction via the InCircle predicate.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(9)
		pts := make([]geom.Point, n)
		ids := make([]VertexID, n)
		tr := New()
		for i := range pts {
			for {
				p := geom.Pt(rng.Float64(), rng.Float64())
				if v, err := tr.Insert(p, NoVertex); err == nil {
					pts[i] = p
					ids[i] = v
					break
				}
			}
		}
		mustValidate(t, tr, "random instance")

		adj := bruteForceDelaunayEdges(pts)
		for i := 0; i < n; i++ {
			got := tr.Neighbors(ids[i], nil)
			var gotIdx []int
			for _, v := range got {
				for j := range ids {
					if ids[j] == v {
						gotIdx = append(gotIdx, j)
					}
				}
			}
			sort.Ints(gotIdx)
			want := adj[i]
			sort.Ints(want)
			if len(gotIdx) != len(want) {
				t.Fatalf("trial %d vertex %d: neighbours %v, want %v (pts %v)", trial, i, gotIdx, want, pts)
			}
			for k := range want {
				if gotIdx[k] != want[k] {
					t.Fatalf("trial %d vertex %d: neighbours %v, want %v", trial, i, gotIdx, want)
				}
			}
		}
	}
}

// bruteForceDelaunayEdges computes Delaunay adjacency for points in general
// position by testing all triangles: edge (i,j) is Delaunay iff it belongs
// to a triangle whose circumcircle is empty, or (hull edge) iff a halfplane
// is empty. For simplicity this assumes no 4 co-circular points, which
// holds almost surely for random floats.
func bruteForceDelaunayEdges(pts []geom.Point) [][]int {
	n := len(pts)
	adj := make([][]int, n)
	addEdge := func(i, j int) {
		for _, k := range adj[i] {
			if k == j {
				return
			}
		}
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				a, b, c := pts[i], pts[j], pts[k]
				o := geom.Orient2D(a, b, c)
				if o == 0 {
					continue
				}
				if o < 0 {
					b, c = c, b
				}
				empty := true
				for l := 0; l < n; l++ {
					if l == i || l == j || l == k {
						continue
					}
					if geom.InCircle(a, b, c, pts[l]) > 0 {
						empty = false
						break
					}
				}
				if empty {
					addEdge(i, j)
					addEdge(j, k)
					addEdge(i, k)
				}
			}
		}
	}
	return adj
}

func TestRemoveInterior(t *testing.T) {
	tr := New()
	mustInsert(t, tr, geom.Pt(0, 0))
	mustInsert(t, tr, geom.Pt(1, 0))
	mustInsert(t, tr, geom.Pt(1, 1))
	mustInsert(t, tr, geom.Pt(0, 1))
	c := mustInsert(t, tr, geom.Pt(0.5, 0.5))
	mustValidate(t, tr, "square plus centre")

	if err := tr.Remove(c); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	mustValidate(t, tr, "after interior removal")
	if tr.NumSites() != 4 {
		t.Fatalf("sites: %d", tr.NumSites())
	}
	if tr.Alive(c) {
		t.Fatal("removed vertex still alive")
	}
}

func TestRemoveHullVertex(t *testing.T) {
	tr := New()
	ids := []VertexID{
		mustInsert(t, tr, geom.Pt(0, 0)),
		mustInsert(t, tr, geom.Pt(1, 0)),
		mustInsert(t, tr, geom.Pt(1, 1)),
		mustInsert(t, tr, geom.Pt(0, 1)),
		mustInsert(t, tr, geom.Pt(0.5, 0.5)),
		mustInsert(t, tr, geom.Pt(0.5, -0.8)),
	}
	mustValidate(t, tr, "hexa")
	// Remove the bottom spike (a hull vertex with pockets behind it).
	if err := tr.Remove(ids[5]); err != nil {
		t.Fatalf("Remove hull: %v", err)
	}
	mustValidate(t, tr, "after hull removal")
	// Remove a corner.
	if err := tr.Remove(ids[0]); err != nil {
		t.Fatalf("Remove corner: %v", err)
	}
	mustValidate(t, tr, "after corner removal")
	if tr.NumSites() != 4 {
		t.Fatalf("sites: %d", tr.NumSites())
	}
}

func TestRemoveDowngradesDimension(t *testing.T) {
	tr := New()
	a := mustInsert(t, tr, geom.Pt(0, 0))
	b := mustInsert(t, tr, geom.Pt(1, 0))
	cc := mustInsert(t, tr, geom.Pt(2, 0))
	d := mustInsert(t, tr, geom.Pt(1, 1))
	mustValidate(t, tr, "three collinear plus apex")

	// Removing the apex leaves three collinear sites: dimension drops to 1.
	if err := tr.Remove(d); err != nil {
		t.Fatalf("Remove apex: %v", err)
	}
	mustValidate(t, tr, "after downgrade")
	if tr.Dimension() != 1 {
		t.Fatalf("dim: %d", tr.Dimension())
	}
	if nb := tr.Neighbors(b, nil); len(nb) != 2 {
		t.Fatalf("chain neighbours: %v", nb)
	}
	_ = a
	_ = cc

	// Continue down to empty.
	if err := tr.Remove(b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(cc); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tr, "empty again")
	if tr.NumSites() != 0 || tr.Dimension() != -1 {
		t.Fatalf("n=%d dim=%d", tr.NumSites(), tr.Dimension())
	}
	if err := tr.Remove(b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestNearestSite(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	var ids []VertexID
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		v, err := tr.Insert(p, NoVertex)
		if err != nil {
			continue
		}
		pts = append(pts, p)
		ids = append(ids, v)
	}
	for q := 0; q < 500; q++ {
		// Mix of inside and outside queries.
		p := geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
		got, _ := tr.NearestSiteRO(p, NoVertex, nil)
		best, bestD := NoVertex, 0.0
		for i, pt := range pts {
			d := geom.Dist2(p, pt)
			if best == NoVertex || d < bestD {
				best, bestD = ids[i], d
			}
		}
		if geom.Dist2(p, tr.Point(got)) != bestD {
			t.Fatalf("NearestSiteRO(%v): got %v (d=%g) want %v (d=%g)",
				p, tr.Point(got), geom.Dist2(p, tr.Point(got)), tr.Point(best), bestD)
		}
	}
}

func TestRandomChurnMaintainsDelaunay(t *testing.T) {
	// The central stress test: interleaved random inserts and removals with
	// full validation. This is exactly the access pattern of the VoroNet
	// protocol (fictive objects are inserted and removed on every routing
	// operation).
	rng := rand.New(rand.NewSource(31337))
	tr := New()
	var live []VertexID
	for step := 0; step < 1200; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			var p geom.Point
			switch rng.Intn(4) {
			case 0: // uniform
				p = geom.Pt(rng.Float64(), rng.Float64())
			case 1: // clustered
				p = geom.Pt(0.5+rng.NormFloat64()*1e-3, 0.5+rng.NormFloat64()*1e-3)
			case 2: // grid (heavy degeneracy)
				p = geom.Pt(float64(rng.Intn(12))/12, float64(rng.Intn(12))/12)
			default: // collinear band
				p = geom.Pt(rng.Float64(), 0.25)
			}
			v, err := tr.Insert(p, NoVertex)
			if err == nil {
				live = append(live, v)
			} else if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := tr.Remove(v); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
		}
		if step%25 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d (n=%d): %v", step, tr.NumSites(), err)
			}
		}
	}
	mustValidate(t, tr, "final churn state")
	if tr.NumSites() != len(live) {
		t.Fatalf("site count drift: %d vs %d", tr.NumSites(), len(live))
	}
	// Drain to empty, validating periodically.
	for i, v := range live {
		if err := tr.Remove(v); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if i%10 == 0 {
			mustValidate(t, tr, "drain")
		}
	}
	mustValidate(t, tr, "drained")
}

func TestGridChurn(t *testing.T) {
	// Insert a grid, remove every other point including hull vertices, all
	// under degeneracy (cocircular squares, collinear hull chains).
	tr := New()
	const k = 7
	ids := map[[2]int]VertexID{}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			ids[[2]int{i, j}] = mustInsert(t, tr, geom.Pt(float64(i), float64(j)))
		}
	}
	mustValidate(t, tr, "grid")
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if (i+j)%2 == 0 {
				if err := tr.Remove(ids[[2]int{i, j}]); err != nil {
					t.Fatalf("remove (%d,%d): %v", i, j, err)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("after removing (%d,%d): %v", i, j, err)
				}
			}
		}
	}
}

func TestGridFullDrain(t *testing.T) {
	// Remove every grid point in pseudo-random order down to the empty
	// structure, validating continuously: exercises co-circular cavity
	// fills, collinear hull chains, pocket retriangulation and both
	// dimension downgrades.
	tr := New()
	const k = 6
	var ids []VertexID
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			ids = append(ids, mustInsert(t, tr, geom.Pt(float64(i), float64(j))))
		}
	}
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	for i, v := range ids {
		if err := tr.Remove(v); err != nil {
			t.Fatalf("remove %d/%d: %v", i, len(ids), err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after remove %d/%d: %v", i, len(ids), err)
		}
	}
	if tr.NumSites() != 0 || tr.Dimension() != -1 {
		t.Fatalf("drained state: n=%d dim=%d", tr.NumSites(), tr.Dimension())
	}
}

func TestCocircularRingChurn(t *testing.T) {
	// Points on a common circle: the most degenerate configuration for
	// InCircle (every 4-tuple is co-circular) and the one the paper calls
	// out for vn(o) ("if all objects lie on a circle centered at o, then
	// all the objects will belong to vn(o)").
	tr := New()
	centre := mustInsert(t, tr, geom.Pt(0.5, 0.5))
	var ring []VertexID
	const m = 24
	for i := 0; i < m; i++ {
		th := 2 * math.Pi * float64(i) / m
		// Snap to a grid so many points are exactly co-circular in floats.
		x := 0.5 + 0.25*math.Cos(th)
		y := 0.5 + 0.25*math.Sin(th)
		ring = append(ring, mustInsert(t, tr, geom.Pt(x, y)))
	}
	mustValidate(t, tr, "ring")
	// The centre must be adjacent to many ring points.
	if d := tr.Degree(centre); d < m/2 {
		t.Fatalf("centre degree %d, want close to %d", d, m)
	}
	// Remove the centre: the ring alone retriangulates (arbitrarily, since
	// everything is co-circular) but must stay structurally Delaunay.
	if err := tr.Remove(centre); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, tr, "ring without centre")
	// Remove half the ring.
	for i, v := range ring {
		if i%2 == 0 {
			if err := tr.Remove(v); err != nil {
				t.Fatal(err)
			}
			mustValidate(t, tr, "ring churn")
		}
	}
}

func TestHullCollinearChurn(t *testing.T) {
	// Many collinear points on the hull; removals along the boundary line.
	tr := New()
	var bottom []VertexID
	for i := 0; i <= 10; i++ {
		bottom = append(bottom, mustInsert(t, tr, geom.Pt(float64(i)/10, 0)))
	}
	mustInsert(t, tr, geom.Pt(0.3, 0.7))
	mustInsert(t, tr, geom.Pt(0.7, 0.4))
	mustValidate(t, tr, "comb")
	for _, v := range bottom[2:9] {
		if err := tr.Remove(v); err != nil {
			t.Fatalf("remove bottom: %v", err)
		}
		mustValidate(t, tr, "bottom removal")
	}
}

func TestVertexIDRecycling(t *testing.T) {
	tr := New()
	a := mustInsert(t, tr, geom.Pt(0, 0))
	mustInsert(t, tr, geom.Pt(1, 0))
	mustInsert(t, tr, geom.Pt(0, 1))
	mustInsert(t, tr, geom.Pt(1, 1))
	if err := tr.Remove(a); err != nil {
		t.Fatal(err)
	}
	b := mustInsert(t, tr, geom.Pt(0.2, 0.3))
	if b != a {
		t.Logf("note: id not recycled immediately (got %d, freed %d) — allowed", b, a)
	}
	if !tr.Alive(b) {
		t.Fatal("fresh vertex not alive")
	}
	mustValidate(t, tr, "after recycle")
}

func TestIsHullVertex(t *testing.T) {
	tr := New()
	corners := []VertexID{
		mustInsert(t, tr, geom.Pt(0, 0)),
		mustInsert(t, tr, geom.Pt(1, 0)),
		mustInsert(t, tr, geom.Pt(1, 1)),
		mustInsert(t, tr, geom.Pt(0, 1)),
	}
	centre := mustInsert(t, tr, geom.Pt(0.5, 0.5))
	for _, c := range corners {
		if !isHullVertex(tr, c) {
			t.Errorf("corner %d should be on hull", c)
		}
	}
	if isHullVertex(tr, centre) {
		t.Error("centre should not be on hull")
	}
}

func TestLocateWithHint(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(5))
	var ids []VertexID
	for i := 0; i < 300; i++ {
		if v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex); err == nil {
			ids = append(ids, v)
		}
	}
	for q := 0; q < 200; q++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		hint := ids[rng.Intn(len(ids))]
		locA := tr.locate(p, hint)
		locB := tr.locate(p, NoVertex)
		if locA.Kind != locB.Kind {
			t.Fatalf("hint changes location kind: %v vs %v", locA.Kind, locB.Kind)
		}
		if locA.Kind == LocFace && locA.Face != locB.Face {
			t.Fatalf("hint changes located face")
		}
	}
}

func TestForEachIteration(t *testing.T) {
	tr := New()
	mustInsert(t, tr, geom.Pt(0, 0))
	mustInsert(t, tr, geom.Pt(1, 0))
	mustInsert(t, tr, geom.Pt(0, 1))
	mustInsert(t, tr, geom.Pt(1, 1))

	faces := 0
	tr.ForEachFiniteFace(func(a, b, c VertexID) bool {
		faces++
		o := geom.Orient2D(tr.Point(a), tr.Point(b), tr.Point(c))
		if o <= 0 {
			t.Fatalf("non-ccw face in iteration")
		}
		return true
	})
	if faces != 2 {
		t.Fatalf("ForEachFiniteFace visited %d", faces)
	}
	// Early stop.
	n := 0
	tr.ForEachFiniteFace(func(a, b, c VertexID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestLargeUniformInsertion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tr := New()
	rng := rand.New(rand.NewSource(1))
	hint := NoVertex
	for i := 0; i < 20000; i++ {
		v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), hint)
		if err == nil {
			hint = v
		}
	}
	if tr.NumSites() != 20000 {
		t.Fatalf("sites: %d", tr.NumSites())
	}
	mustValidate(t, tr, "20k uniform")
	// Average finite degree in a Delaunay triangulation is < 6.
	total := 0
	forEachSite(tr, func(v VertexID, _ geom.Point) bool {
		total += tr.Degree(v)
		return true
	})
	avg := float64(total) / 20000
	if avg < 5 || avg > 6 {
		t.Fatalf("average degree %g out of expected range", avg)
	}
}

func BenchmarkInsertUniform(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	hint := NoVertex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), hint)
		if err == nil {
			hint = v
		}
	}
}

func BenchmarkInsertRemoveCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex)
		if err != nil {
			continue
		}
		if err := tr.Remove(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestSite(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), NoVertex)
	}
	var buf []VertexID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf = tr.NearestSiteRO(geom.Pt(rng.Float64(), rng.Float64()), NoVertex, buf)
	}
}
