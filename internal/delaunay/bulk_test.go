package delaunay

import (
	"math/rand"
	"sort"
	"testing"

	"voronet/internal/geom"
)

func TestInsertBulkMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := make([]geom.Point, 800)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	// Bulk build.
	bulk := New()
	ids := bulk.InsertBulkParallel(pts, 1)
	if err := bulk.Validate(); err != nil {
		t.Fatalf("bulk validate: %v", err)
	}
	// Incremental reference.
	ref := New()
	refIDs := make([]VertexID, len(pts))
	for i, p := range pts {
		v, err := ref.Insert(p, NoVertex)
		if err != nil {
			t.Fatal(err)
		}
		refIDs[i] = v
	}
	// Same neighbour sets (by position) for every point.
	posOf := func(tr *Triangulation, v VertexID) geom.Point { return tr.Point(v) }
	for i := range pts {
		a := neighborPositions(bulk, ids[i], posOf)
		b := neighborPositions(ref, refIDs[i], posOf)
		if len(a) != len(b) {
			t.Fatalf("point %d: %d vs %d neighbours", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("point %d neighbour mismatch", i)
			}
		}
	}
}

func neighborPositions(tr *Triangulation, v VertexID, pos func(*Triangulation, VertexID) geom.Point) []geom.Point {
	var out []geom.Point
	for _, u := range tr.Neighbors(v, nil) {
		out = append(out, pos(tr, u))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

func TestInsertBulkDuplicatesAndTinyInputs(t *testing.T) {
	tr := New()
	if ids := tr.InsertBulkParallel(nil, 1); len(ids) != 0 {
		t.Fatal("empty bulk insert")
	}
	ids := tr.InsertBulkParallel([]geom.Point{{X: 0.5, Y: 0.5}}, 1)
	if len(ids) != 1 || !tr.Alive(ids[0]) {
		t.Fatal("singleton bulk insert")
	}
	// Duplicates resolve to the existing ID.
	ids2 := tr.InsertBulkParallel([]geom.Point{{X: 0.5, Y: 0.5}, {X: 0.25, Y: 0.5}}, 1)
	if ids2[0] != ids[0] {
		t.Fatalf("duplicate should return existing id %d, got %d", ids[0], ids2[0])
	}
	if tr.NumSites() != 2 {
		t.Fatalf("sites: %d", tr.NumSites())
	}
	// Bulk into an already-populated triangulation.
	tr.InsertBulkParallel([]geom.Point{{X: 0.9, Y: 0.9}, {X: 0.1, Y: 0.8}}, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertOrderIsPermutationAndLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	order := hilbertOrderParallel(pts, 1)
	seen := make([]bool, len(pts))
	for _, idx := range order {
		if seen[idx] {
			t.Fatal("not a permutation")
		}
		seen[idx] = true
	}
	// Locality: the mean hop distance along the order must be far below
	// the ~0.52 expected for a random permutation.
	total := 0.0
	for i := 1; i < len(order); i++ {
		total += geom.Dist(pts[order[i-1]], pts[order[i]])
	}
	mean := total / float64(len(order)-1)
	if mean > 0.1 {
		t.Fatalf("hilbert order mean step %.3f — not local", mean)
	}
}

// TestInsertBulkParallelWorkerCountInvariant asserts the guarantee the
// parallel sort is built on: the insertion order — and therefore the whole
// structure, face IDs included — is identical for every worker count,
// because the comparator is a total order over (key, coordinates, index).
func TestInsertBulkParallelWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := make([]geom.Point, 6000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	// Duplicate coordinates exercise the index tie-break.
	pts[100] = pts[4000]
	pts[200] = pts[5000]
	ref := hilbertOrderParallel(pts, 1)
	for _, workers := range []int{2, 3, 4, 8} {
		got := hilbertOrderParallel(pts, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: order diverges at %d: %d vs %d", workers, i, got[i], ref[i])
			}
		}
	}
	// And the triangulations agree structurally.
	a := New()
	aIDs := a.InsertBulkParallel(pts, 1)
	b := New()
	bIDs := b.InsertBulkParallel(pts, 4)
	if err := b.Validate(); err != nil {
		t.Fatalf("parallel validate: %v", err)
	}
	posOf := func(tr *Triangulation, v VertexID) geom.Point { return tr.Point(v) }
	for i := range pts {
		na := neighborPositions(a, aIDs[i], posOf)
		nb := neighborPositions(b, bIDs[i], posOf)
		if len(na) != len(nb) {
			t.Fatalf("point %d: %d vs %d neighbours", i, len(na), len(nb))
		}
		for j := range na {
			if na[j] != nb[j] {
				t.Fatalf("point %d neighbour mismatch", i)
			}
		}
	}
}

func TestHilbertDistanceBasics(t *testing.T) {
	// First-order curve visits the four quadrant cells in the canonical
	// order (0,0) (0,1) (1,1) (1,0).
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for cell, d := range want {
		if got := hilbertD(1, cell[0], cell[1]); got != d {
			t.Errorf("hilbertD(1,%d,%d) = %d, want %d", cell[0], cell[1], got, d)
		}
	}
	// Distances on a 2-bit curve are a bijection over 16 cells.
	seen := map[uint64]bool{}
	for x := uint32(0); x < 4; x++ {
		for y := uint32(0); y < 4; y++ {
			d := hilbertD(2, x, y)
			if d > 15 || seen[d] {
				t.Fatalf("hilbertD(2,%d,%d) = %d invalid", x, y, d)
			}
			seen[d] = true
		}
	}
}

func BenchmarkInsertBulk20k(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New()
		tr.InsertBulkParallel(pts, 1)
	}
}

func BenchmarkInsertNaive20k(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New()
		hint := NoVertex
		for _, p := range pts {
			if v, err := tr.Insert(p, hint); err == nil {
				hint = v
			}
		}
	}
}
