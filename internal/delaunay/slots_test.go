package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"voronet/internal/geom"
)

// TestRecordSizes pins the two arena records: the neighbour slots' count
// byte and queue flag fit in vertex's padding, and a face holds no BFS
// stamp.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(face{}); n != 28 {
		t.Fatalf("face is %d bytes, want 28", n)
	}
	if n := unsafe.Sizeof(vertex{}); n != 24 {
		t.Fatalf("vertex is %d bytes, want 24", n)
	}
}

// checkSlots validates tr (invariant 8 included) and requires every site's
// Neighbors and Degree to agree with its fan walk, a fan of at most adjK
// neighbours being answered with the faces out of reach.
func checkSlots(t *testing.T, tr *Triangulation, ctx string) {
	t.Helper()
	mustValidate(t, tr, ctx)
	var walk, got []VertexID
	forEachSite(tr, func(v VertexID, _ geom.Point) bool {
		if tr.Dimension() < 2 {
			walk = tr.Neighbors(v, walk)
		} else {
			walk = tr.fan(v, walk[:0])
		}
		if len(walk) <= adjK {
			faces := tr.faces
			tr.faces = nil // a fan walk now panics
			got = tr.Neighbors(v, got)
			tr.faces = faces
		} else {
			got = tr.Neighbors(v, got)
		}
		if !slices.Equal(got, walk) {
			t.Fatalf("%s: vertex %d: Neighbors %v, fan walk %v", ctx, v, got, walk)
		}
		if d := tr.Degree(v); d != len(walk) {
			t.Fatalf("%s: vertex %d: Degree %d, fan walk %d", ctx, v, d, len(walk))
		}
		return true
	})
}

// ringPoints returns m points evenly spaced on the circle of radius r
// around (0.5, 0.5), shuffled by rng.
func ringPoints(m int, r float64, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, m)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / float64(m)
		pts[i] = geom.Pt(0.5+r*math.Cos(th), 0.5+r*math.Sin(th))
	}
	rng.Shuffle(m, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestNeighborSlotsMatchFan drives seeded insert/remove sequences through
// every path that rewrites a fan — Bowyer–Watson cavities, interior and
// hull removals with their flips, dimension changes through rebuildAll, a
// duplicate that frees its vertex — and checks the slots after each
// operation.
func TestNeighborSlotsMatchFan(t *testing.T) {
	t.Run("uniform churn", func(t *testing.T) {
		rng := rand.New(rand.NewSource(81))
		tr := New()
		var live []VertexID
		for op := 0; op < 600; op++ {
			if len(live) < 40 || rng.Intn(3) > 0 {
				live = append(live, mustInsert(t, tr, geom.Pt(rng.Float64(), rng.Float64())))
			} else {
				k := rng.Intn(len(live))
				if err := tr.Remove(live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			checkSlots(t, tr, "uniform churn")
		}
	})

	t.Run("cocircular ring centre", func(t *testing.T) {
		rng := rand.New(rand.NewSource(82))
		tr := New()
		var ring []VertexID
		for _, p := range ringPoints(64, 0.4, rng) {
			ring = append(ring, mustInsert(t, tr, p))
		}
		c := mustInsert(t, tr, geom.Pt(0.5, 0.5))
		checkSlots(t, tr, "ring centre")
		if d := tr.Degree(c); d != 64 || tr.verts[c].nadj <= adjK {
			t.Fatalf("centre degree %d, count byte %d: want 64 on the fan walk", d, tr.verts[c].nadj)
		}
		// Shrink the centre's fan through adjK and down to a triangle.
		for _, v := range ring[:61] {
			if err := tr.Remove(v); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tr, "ring removal")
		}
		if d := tr.Degree(c); d != 3 || tr.verts[c].nadj != 3 {
			t.Fatalf("centre degree %d, count byte %d: want 3 in slots", d, tr.verts[c].nadj)
		}
	})

	t.Run("collinear upgrade and downgrade", func(t *testing.T) {
		tr := New()
		for i := 0; i < 12; i++ {
			mustInsert(t, tr, geom.Pt(float64(i)/16, 0.5))
			checkSlots(t, tr, "chain")
		}
		for round := 0; round < 3; round++ {
			w := mustInsert(t, tr, geom.Pt(0.3, 0.8))
			checkSlots(t, tr, "upgrade")
			if tr.Dimension() != 2 {
				t.Fatalf("dimension %d after the off-line insert", tr.Dimension())
			}
			if err := tr.Remove(w); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tr, "downgrade")
			if tr.Dimension() != 1 {
				t.Fatalf("dimension %d after removing the only off-line site", tr.Dimension())
			}
		}
		// A triangle losing a vertex rebuilds too.
		tri := New()
		a := mustInsert(t, tri, geom.Pt(0.1, 0.1))
		mustInsert(t, tri, geom.Pt(0.9, 0.1))
		mustInsert(t, tri, geom.Pt(0.5, 0.9))
		checkSlots(t, tri, "triangle")
		if err := tri.Remove(a); err != nil {
			t.Fatal(err)
		}
		checkSlots(t, tri, "triangle minus one")
	})

	t.Run("hull removals", func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		tr := New()
		for i := 0; i < 200; i++ {
			mustInsert(t, tr, geom.Pt(rng.Float64(), rng.Float64()))
		}
		for tr.NumSites() > 3 {
			var hull []VertexID
			forEachSite(tr, func(v VertexID, _ geom.Point) bool {
				if isHullVertex(tr, v) {
					hull = append(hull, v)
				}
				return true
			})
			if err := tr.Remove(hull[rng.Intn(len(hull))]); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tr, "hull removal")
		}
	})

	t.Run("far exterior insert", func(t *testing.T) {
		rng := rand.New(rand.NewSource(84))
		tr := New()
		for i := 0; i < 300; i++ {
			mustInsert(t, tr, geom.Pt(rng.Float64(), rng.Float64()))
		}
		far := []VertexID{
			mustInsert(t, tr, geom.Pt(1e6, 1e6)),
			mustInsert(t, tr, geom.Pt(-1e6, 0.5)),
		}
		checkSlots(t, tr, "far inserts")
		for _, v := range far {
			if err := tr.Remove(v); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tr, "far removal")
		}
	})

	t.Run("duplicate insert", func(t *testing.T) {
		rng := rand.New(rand.NewSource(85))
		tr := New()
		var pts []geom.Point
		for i := 0; i < 100; i++ {
			pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
			mustInsert(t, tr, pts[i])
		}
		for _, p := range pts[:10] {
			if _, err := tr.Insert(p, NoVertex); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("want ErrDuplicate, got %v", err)
			}
			checkSlots(t, tr, "duplicate")
			mustInsert(t, tr, geom.Pt(rng.Float64(), rng.Float64())) // reuses the freed vertex
			checkSlots(t, tr, "insert after duplicate")
		}
		// In a bulk load the freed vertex is reused before the one flush.
		bulk := New()
		var in []geom.Point
		for i := 0; i < 500; i++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			in = append(in, p, p)
		}
		bulk.InsertBulkParallel(in, 1)
		checkSlots(t, bulk, "bulk with duplicates")
	})
}

// TestInsertLargeCavity inserts points whose conflict cavities cover most
// of the structure: the centre of a 2 000-point cocircular ring, whose
// cavity is every finite face, and a point far outside 10 000 sites in
// convex position, which sees half their hull.
func TestInsertLargeCavity(t *testing.T) {
	euler := func(t *testing.T, tr *Triangulation) {
		t.Helper()
		h := 0
		forEachSite(tr, func(v VertexID, _ geom.Point) bool {
			if isHullVertex(tr, v) {
				h++
			}
			return true
		})
		if n, want := tr.NumSites(), 2*tr.NumSites()-h-2; tr.numFiniteFaces() != want {
			t.Fatalf("finite faces %d, want %d (n=%d h=%d)", tr.numFiniteFaces(), want, n, h)
		}
	}
	t.Run("ring centre", func(t *testing.T) {
		tr := New()
		tr.InsertBulkParallel(ringPoints(2000, 0.4, rand.New(rand.NewSource(86))), 1)
		c := mustInsert(t, tr, geom.Pt(0.5, 0.5))
		mustValidate(t, tr, "ring centre")
		if d := tr.Degree(c); d != 2000 {
			t.Fatalf("centre degree %d, want 2000", d)
		}
		euler(t, tr)
	})
	t.Run("far outside a convex hull", func(t *testing.T) {
		pts := make([]geom.Point, 10000)
		for i := range pts {
			x := float64(i) / float64(len(pts))
			pts[i] = geom.Pt(x, x*x)
		}
		tr := New()
		tr.InsertBulkParallel(pts, 1)
		far := mustInsert(t, tr, geom.Pt(0.5, -1e6))
		mustValidate(t, tr, "far outside")
		if d := tr.Degree(far); d < len(pts)/2 {
			t.Fatalf("far point degree %d, want most of the %d hull sites", d, len(pts))
		}
		euler(t, tr)
	})
}

// skipUnderRace skips a test whose allocation counts the race detector's
// instrumentation would void.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// TestDegreeZeroAllocs pins Degree at zero allocations on all three of its
// paths: the slots, a fan wider than adjK, and the collinear chain.
func TestDegreeZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tr := New()
	tr.InsertBulkParallel(ringPoints(64, 0.4, rand.New(rand.NewSource(87))), 1)
	c := mustInsert(t, tr, geom.Pt(0.5, 0.5))
	chain := New()
	for i := 0; i < 5; i++ {
		mustInsert(t, chain, geom.Pt(float64(i), 0))
	}
	sum := 0
	allocs := testing.AllocsPerRun(50, func() {
		sum += tr.Degree(c) + tr.Degree(1) + chain.Degree(3)
	})
	if allocs != 0 {
		t.Fatalf("Degree allocates %.1f times per call set, want 0", allocs)
	}
	if tr.Degree(c) != 64 || chain.Degree(3) != 2 {
		t.Fatalf("degrees %d, %d: want 64 and 2", tr.Degree(c), chain.Degree(3))
	}
}

// TestRemoveZeroAllocs pins Remove at zero allocations in steady state,
// for an interior site and for a hull site, each removed and inserted
// again at its own position: every buffer the hole's retriangulation
// needs is the triangulation's scratch, and Insert needs none either.
func TestRemoveZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(88))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	tr := New()
	tr.InsertBulkParallel(pts, 1)
	for _, hull := range []bool{false, true} {
		v := NoVertex
		forEachSite(tr, func(u VertexID, _ geom.Point) bool {
			if isHullVertex(tr, u) == hull && tr.Degree(u) >= 6 {
				v = u
				return false
			}
			return true
		})
		p := tr.Point(v)
		cycle := func() {
			if err := tr.Remove(v); err != nil {
				t.Fatal(err)
			}
			var err error
			if v, err = tr.Insert(p, NoVertex); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // grow the scratch to this site's hole
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Fatalf("hull=%v: Remove and Insert allocate %.1f times per cycle, want 0", hull, allocs)
		}
		mustValidate(t, tr, "after the cycles")
	}
	if tr.rebuilds != 0 {
		t.Fatalf("%d removals fell back to a rebuild", tr.rebuilds)
	}
}
