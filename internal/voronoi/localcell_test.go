package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

func TestLocalCellMatchesDiagramCell(t *testing.T) {
	// A node's region computed from its neighbour view alone must equal
	// the cell computed from the global triangulation (same halfplanes).
	tr, ids := buildRandom(t, 120, 61)
	d := New(tr)
	for _, v := range ids[:40] {
		global := append([]geom.Point(nil), d.Cell(v)...)
		var nbrs []geom.Point
		for _, u := range tr.Neighbors(v, nil) {
			nbrs = append(nbrs, tr.Point(u))
		}
		local := LocalCell(tr.Point(v), nbrs, 0)
		if math.Abs(polygonArea(global)-polygonArea(local)) > 1e-9 {
			t.Fatalf("site %d: local area %g vs global %g", v,
				polygonArea(local), polygonArea(global))
		}
	}
}

func TestLocalCellNoNeighbors(t *testing.T) {
	cell := LocalCell(geom.Pt(0.5, 0.5), nil, 2)
	if polygonArea(cell) != 16 {
		t.Fatalf("empty neighbour set must give the whole box: area %g", polygonArea(cell))
	}
}

func TestConvexPolygonIntersectsSegment(t *testing.T) {
	sq := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	cases := []struct {
		a, b geom.Point
		want bool
	}{
		{geom.Pt(-1, 0.5), geom.Pt(2, 0.5), true},    // crosses
		{geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.8), true}, // inside
		{geom.Pt(-1, -1), geom.Pt(-0.5, 2), false},   // left of square
		{geom.Pt(-1, 1.5), geom.Pt(2, 1.5), false},   // above
		{geom.Pt(1, 1), geom.Pt(2, 2), true},         // touches corner
		{geom.Pt(-1, 2), geom.Pt(2, -1), true},       // diagonal through
	}
	for _, tc := range cases {
		if got := geom.ConvexPolygonIntersectsSegment(sq, tc.a, tc.b); got != tc.want {
			t.Errorf("segment %v-%v: got %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if geom.ConvexPolygonIntersectsSegment(sq[:2], geom.Pt(0, 0), geom.Pt(1, 1)) {
		t.Error("degenerate polygon must not intersect")
	}
}

func TestLocalCellRandomContainment(t *testing.T) {
	// Every point of the local cell must be at least as close to self as
	// to any neighbour (sampled check).
	rng := rand.New(rand.NewSource(64))
	self := geom.Pt(0.4, 0.6)
	var nbrs []geom.Point
	for i := 0; i < 8; i++ {
		nbrs = append(nbrs, geom.Pt(rng.Float64(), rng.Float64()))
	}
	cell := LocalCell(self, nbrs, 0)
	if len(cell) < 3 {
		t.Fatal("degenerate local cell")
	}
	// Sample interior points via convex combinations of vertices.
	for s := 0; s < 200; s++ {
		w := make([]float64, len(cell))
		sum := 0.0
		for i := range w {
			w[i] = rng.Float64()
			sum += w[i]
		}
		var p geom.Point
		for i := range w {
			p = p.Add(cell[i].Scale(w[i] / sum))
		}
		ds := geom.Dist2(p, self)
		for _, q := range nbrs {
			if geom.Dist2(p, q) < ds-1e-9 {
				t.Fatalf("cell point %v closer to neighbour %v", p, q)
			}
		}
	}
	_ = delaunay.NoVertex // keep the import for the shared test helpers
}
