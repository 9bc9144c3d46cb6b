package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

func buildRandom(t *testing.T, n int, seed int64) (*delaunay.Triangulation, []delaunay.VertexID) {
	t.Helper()
	tr := delaunay.New()
	rng := rand.New(rand.NewSource(seed))
	var ids []delaunay.VertexID
	for len(ids) < n {
		v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), delaunay.NoVertex)
		if err != nil {
			continue
		}
		ids = append(ids, v)
	}
	return tr, ids
}

func TestContainsMatchesNearestSite(t *testing.T) {
	tr, ids := buildRandom(t, 150, 11)
	d := New(tr)
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 400; q++ {
		p := geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		nearest, _ := tr.NearestSiteRO(p, delaunay.NoVertex, nil)
		if !d.contains(nearest, p) {
			t.Fatalf("nearest site's region must contain the query %v", p)
		}
		// And points are in at most one open region: any other site whose
		// region claims p must be equidistant.
		dn := geom.Dist2(p, tr.Point(nearest))
		cnt := 0
		for _, v := range ids {
			if pt := tr.Point(v); d.contains(v, p) {
				cnt++
				if math.Abs(geom.Dist2(p, pt)-dn) > 1e-12 {
					t.Fatalf("region of non-nearest site %v contains %v", pt, p)
				}
			}
		}
		if cnt < 1 {
			t.Fatalf("no region contains %v", p)
		}
	}
}

func TestCellContainsSite(t *testing.T) {
	tr, ids := buildRandom(t, 100, 13)
	d := New(tr)
	for _, v := range ids {
		poly := d.cell(v)
		if len(poly) < 3 {
			t.Fatalf("cell of %d has %d vertices", v, len(poly))
		}
		o := tr.Point(v)
		// o strictly inside its own cell (convex, ccw).
		for i := range poly {
			a := poly[i]
			b := poly[(i+1)%len(poly)]
			if (b.X-a.X)*(o.Y-a.Y)-(b.Y-a.Y)*(o.X-a.X) < 0 {
				t.Fatalf("site %v outside its own cell", o)
			}
		}
	}
}

func TestCellAreasTileTheBox(t *testing.T) {
	tr, ids := buildRandom(t, 60, 14)
	d := New(tr)
	total := 0.0
	for _, v := range ids {
		total += polygonArea(d.cell(v))
	}
	box := (2 * defaultBound) * (2 * defaultBound)
	if math.Abs(total-box) > 1e-6*box {
		t.Fatalf("cell areas sum to %g, want %g", total, box)
	}
}

func TestDistanceToRegion(t *testing.T) {
	tr, ids := buildRandom(t, 120, 15)
	d := New(tr)
	rng := rand.New(rand.NewSource(16))
	for q := 0; q < 300; q++ {
		p := geom.Pt(rng.Float64()*1.6-0.3, rng.Float64()*1.6-0.3)
		v := ids[rng.Intn(len(ids))]
		z, dist := d.DistanceToRegion(v, p)
		// The returned point must be (weakly) inside the region.
		if !d.contains(v, z) {
			// Allow boundary round-off: z must be no closer to any
			// neighbour than to v beyond a tiny tolerance.
			o := tr.Point(v)
			dv := geom.Dist(z, o)
			ok := true
			for _, u := range tr.Neighbors(v, nil) {
				if geom.Dist(z, tr.Point(u)) < dv-1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				t.Fatalf("DistanceToRegion returned a point outside R(%d)", v)
			}
		}
		if math.Abs(geom.Dist(p, z)-dist) > 1e-9 {
			t.Fatalf("distance inconsistent with returned point")
		}
		// If p is in the region, distance must be 0 and z == p.
		if d.contains(v, p) && (dist != 0 || z != p) {
			t.Fatalf("p in region but DistanceToRegion = %v, %g", z, dist)
		}
		// The distance is a lower bound for the distance to the site and is
		// achieved by no sampled interior point.
		if dist > geom.Dist(p, tr.Point(v))+1e-12 {
			t.Fatalf("distance to region exceeds distance to site")
		}
	}
}

func TestDistanceToRegionBruteForce(t *testing.T) {
	// Sample the cell of a site densely; no sample may be closer than the
	// reported distance (minus tolerance).
	tr, ids := buildRandom(t, 40, 17)
	d := New(tr)
	rng := rand.New(rand.NewSource(18))
	for q := 0; q < 50; q++ {
		v := ids[rng.Intn(len(ids))]
		p := geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
		_, dist := d.DistanceToRegion(v, p)
		for s := 0; s < 400; s++ {
			sample := geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
			if d.contains(v, sample) && geom.Dist(p, sample) < dist-1e-9 {
				t.Fatalf("sample %v in R(%d) closer (%g) than reported distance %g",
					sample, v, geom.Dist(p, sample), dist)
			}
		}
	}
}

func TestDegenerateModeCells(t *testing.T) {
	// Two sites: cells are halfplanes (clipped to the box).
	tr := delaunay.New()
	a, _ := tr.Insert(geom.Pt(0.25, 0.5), delaunay.NoVertex)
	b, _ := tr.Insert(geom.Pt(0.75, 0.5), delaunay.NoVertex)
	d := New(tr)
	if !d.contains(a, geom.Pt(0.1, 0.9)) || d.contains(a, geom.Pt(0.9, 0.1)) {
		t.Fatal("halfplane containment wrong for two sites")
	}
	areaA := polygonArea(d.cell(a))
	areaB := polygonArea(d.cell(b))
	box := (2 * defaultBound) * (2 * defaultBound)
	if math.Abs(areaA+areaB-box) > 1e-6*box {
		t.Fatalf("two halfplanes must tile the box: %g + %g", areaA, areaB)
	}
	z, dist := d.DistanceToRegion(a, geom.Pt(0.9, 0.5))
	if math.Abs(dist-0.4) > 1e-9 || math.Abs(z.X-0.5) > 1e-9 {
		t.Fatalf("distance to halfplane: z=%v d=%g", z, dist)
	}
}

func BenchmarkDistanceToRegion(b *testing.B) {
	tr := delaunay.New()
	rng := rand.New(rand.NewSource(19))
	var ids []delaunay.VertexID
	for len(ids) < 5000 {
		if v, err := tr.Insert(geom.Pt(rng.Float64(), rng.Float64()), delaunay.NoVertex); err == nil {
			ids = append(ids, v)
		}
	}
	d := New(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := ids[i%len(ids)]
		d.DistanceToRegion(v, geom.Pt(rng.Float64(), rng.Float64()))
	}
}

// polygonArea is the shoelace area of a counterclockwise polygon.
func polygonArea(poly []geom.Point) float64 {
	if len(poly) < 3 {
		return 0
	}
	s := 0.0
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		s += a.X*b.Y - a.Y*b.X
	}
	return s / 2
}
