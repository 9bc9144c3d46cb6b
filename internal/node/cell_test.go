package node

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/workload"
)

// miniNeighbors is the general-position reference for cellNeighbors: the
// node's neighbour computation before it walked its own cell. It inserts
// self, then every candidate in address order, into a fresh Delaunay
// triangulation and reads self's neighbours from it, so a candidate at an
// occupied position is shadowed by the earlier (lower-address) one. Where
// the triangulation is not unique (four or more cocircular sites) its
// answer depends on insertion order and may include a zero-length edge.
func miniNeighbors(self proto.NodeInfo, pool map[string]proto.NodeInfo) []proto.NodeInfo {
	tr := delaunay.New()
	byVert := make(map[delaunay.VertexID]proto.NodeInfo, len(pool))
	sv, err := tr.Insert(self.Pos, delaunay.NoVertex)
	if err != nil {
		return nil
	}
	byVert[sv] = self
	addrs := make([]string, 0, len(pool))
	for a := range pool {
		if a != self.Addr {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		inf := pool[a]
		v, err := tr.Insert(inf.Pos, delaunay.NoVertex)
		if err != nil {
			continue // duplicate position: ignore the shadowed candidate
		}
		byVert[v] = inf
	}
	var out []proto.NodeInfo
	for _, v := range tr.Neighbors(sv, nil) {
		out = append(out, byVert[v])
	}
	return out
}

// bruteCell is the positive-length rule written as its definition, with
// no walk: after shadowing (self's position, then the lower address at a
// shared one) and dropping candidates outside the position domain, c is
// a neighbour iff no candidate lies strictly inside the segment self–c
// and some circle through self and c has every other candidate strictly
// outside — that is, every p strictly left of self→c puts every p'
// strictly right of it outside the circle (self, c, p). O(k³).
func bruteCell(self proto.NodeInfo, pool map[string]proto.NodeInfo) []string {
	s := self.Pos
	at := map[geom.Point]proto.NodeInfo{}
	for _, c := range pool {
		if c.Addr == self.Addr || c.Pos == s || !geom.InDomain(c.Pos) {
			continue
		}
		if o, ok := at[c.Pos]; !ok || c.Addr < o.Addr {
			at[c.Pos] = c
		}
	}
	var out []string
	for _, c := range at {
		var left, right []geom.Point
		blocked := false
		for _, p := range at {
			switch o := geom.Orient2D(s, c.Pos, p.Pos); {
			case o > 0:
				left = append(left, p.Pos)
			case o < 0:
				right = append(right, p.Pos)
			case p.Pos != c.Pos && between(s, c.Pos, p.Pos):
				blocked = true
			}
		}
		for _, p := range left {
			for _, q := range right {
				if geom.InCircle(s, c.Pos, p, q) >= 0 {
					blocked = true
				}
			}
		}
		if !blocked {
			out = append(out, c.Addr)
		}
	}
	sort.Strings(out)
	return out
}

// between reports whether p, collinear with s and c, lies strictly
// between them.
func between(s, c, p geom.Point) bool {
	if s.X != c.X {
		return min(s.X, c.X) < p.X && p.X < max(s.X, c.X)
	}
	return min(s.Y, c.Y) < p.Y && p.Y < max(s.Y, c.Y)
}

func addrsOf(ns []proto.NodeInfo) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Addr
	}
	return out
}

// poolOf names pts p000, p001, … and adds self.
func poolOf(self proto.NodeInfo, pts []geom.Point) map[string]proto.NodeInfo {
	pool := map[string]proto.NodeInfo{self.Addr: self}
	for i, p := range pts {
		a := fmt.Sprintf("p%03d", i)
		pool[a] = proto.NodeInfo{Addr: a, Pos: p}
	}
	return pool
}

// checkCell runs cellNeighbors on one pool and requires its answer to be
// sorted, duplicate-free and equal to the brute-force rule — and, when
// general is set, to miniNeighbors' Delaunay answer as well.
func checkCell(t *testing.T, name string, self proto.NodeInfo, pool map[string]proto.NodeInfo, general bool) {
	t.Helper()
	got := addrsOf(cellNeighbors(self, pool))
	if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
		t.Fatalf("%s: answer %v is not sorted and duplicate-free", name, got)
	}
	if want := bruteCell(self, pool); !slices.Equal(got, want) {
		t.Fatalf("%s: self %v\ncellNeighbors %v\nbrute force   %v\npool %v", name, self.Pos, got, want, pool)
	}
	if general {
		want := addrsOf(miniNeighbors(self, pool))
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: self %v\ncellNeighbors %v\nDelaunay      %v\npool %v", name, self.Pos, got, want, pool)
		}
	}
}

// TestCellNeighborsMatchDelaunay property-tests the walk against both
// references on pools in general position: uniform, α = 5 power-law
// clusters, a tight Gaussian blob, pools with self on their hull, and
// every pool size from 0 to 40.
func TestCellNeighborsMatchDelaunay(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const pools = 600
	kinds := map[string]func(k int) (geom.Point, []geom.Point){
		"uniform": func(k int) (geom.Point, []geom.Point) {
			return uniformPool(rng, k)
		},
		"powerlaw": func(k int) (geom.Point, []geom.Point) {
			src := workload.ByName("alpha5", rng)
			pts := make([]geom.Point, k)
			for i := range pts {
				pts[i] = src.Next()
			}
			return src.Next(), pts
		},
		"gaussian": func(k int) (geom.Point, []geom.Point) {
			c, sigma := geom.Pt(rng.Float64(), rng.Float64()), 1e-9
			gauss := func() geom.Point {
				return geom.Pt(c.X+sigma*rng.NormFloat64(), c.Y+sigma*rng.NormFloat64())
			}
			pts := make([]geom.Point, k)
			for i := range pts {
				pts[i] = gauss()
			}
			return gauss(), pts
		},
		"hull": func(k int) (geom.Point, []geom.Point) {
			// Self is a vertex of the pool's hull: every candidate lies
			// in a wedge of opening below π at self, half of them
			// near-collinear with its legs.
			s := geom.Pt(rng.Float64(), rng.Float64())
			a := rng.Float64() * 2 * math.Pi
			w := rng.Float64() * math.Pi
			pts := make([]geom.Point, k)
			for i := range pts {
				th := a + w*rng.Float64()
				if i%2 == 0 {
					th = a + w*float64(i%4/2) + 1e-12*rng.NormFloat64()
				}
				r := rng.Float64()
				pts[i] = geom.Pt(s.X+r*math.Cos(th), s.Y+r*math.Sin(th))
			}
			return s, pts
		},
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i := 0; i < pools; i++ {
			s, pts := kinds[name](i % 41)
			self := proto.NodeInfo{Addr: "self", Pos: s}
			checkCell(t, fmt.Sprintf("%s pool %d", name, i), self, poolOf(self, pts), true)
		}
	}
}

// TestCellNeighborsDegenerate checks the positive-length rule where the
// Delaunay triangulation is not unique, or degenerate, against the brute
// force only: integer lattices, a ring with and without its centre,
// collinear pools, a candidate at self's position, two candidates at one
// position, candidates outside the position domain, and pools of 0–2
// candidates.
func TestCellNeighborsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	self := func(p geom.Point) proto.NodeInfo { return proto.NodeInfo{Addr: "self", Pos: p} }

	// Lattices: self at a random node of a 7×7 lattice of spacing 1/8
	// (exact in binary), candidates a random subset of the others.
	for i := 0; i < 300; i++ {
		var pts []geom.Point
		sx, sy := rng.Intn(7), rng.Intn(7)
		for x := 0; x < 7; x++ {
			for y := 0; y < 7; y++ {
				if (x != sx || y != sy) && rng.Intn(3) > 0 {
					pts = append(pts, geom.Pt(float64(x)/8, float64(y)/8))
				}
			}
		}
		s := self(geom.Pt(float64(sx)/8, float64(sy)/8))
		checkCell(t, fmt.Sprintf("lattice %d", i), s, poolOf(s, pts), false)
	}

	// The twenty lattice points on the circle of radius 25, scaled by
	// 1/64: exactly cocircular.
	var ring []geom.Point
	for x := -25; x <= 25; x++ {
		for y := -25; y <= 25; y++ {
			if x*x+y*y == 625 {
				ring = append(ring, geom.Pt(0.5+float64(x)/64, 0.5+float64(y)/64))
			}
		}
	}
	centre := geom.Pt(0.5, 0.5)
	s := self(centre)
	got := cellNeighbors(s, poolOf(s, ring))
	if len(got) != 20 {
		t.Fatalf("the ring's centre has %d neighbours, want all 20", len(got))
	}
	checkCell(t, "ring centre", s, poolOf(s, ring), false)
	for i, p := range ring {
		others := slices.Delete(slices.Clone(ring), i, i+1)
		s := self(p)
		// Without the centre, every other ring point meets self at the
		// one Voronoi vertex in the middle: only the two adjacent ones
		// have a positive-length edge.
		if got := cellNeighbors(s, poolOf(s, others)); len(got) != 2 {
			t.Fatalf("ring point %v: %d neighbours on the bare ring, want 2", p, len(got))
		}
		checkCell(t, fmt.Sprintf("ring point %d", i), s, poolOf(s, others), false)
		checkCell(t, fmt.Sprintf("ring point %d with centre", i), s, poolOf(s, append(others, centre)), false)
		mixed := append(slices.Clone(others), centre)
		for range 10 {
			mixed = append(mixed, geom.Pt(rng.Float64(), rng.Float64()))
		}
		checkCell(t, fmt.Sprintf("ring point %d with clutter", i), s, poolOf(s, mixed), false)
	}

	// Collinear pools: along the diagonal and along y = 2x, both exact,
	// with self anywhere on the line; then one point off the line.
	for i := 0; i < 200; i++ {
		k := rng.Intn(12)
		line := func(t float64) geom.Point { return geom.Pt(t, t) }
		if i%2 == 1 {
			line = func(t float64) geom.Point { return geom.Pt(t, 2*t) }
		}
		pts := make([]geom.Point, k)
		for j := range pts {
			pts[j] = line(rng.Float64())
		}
		s := self(line(rng.Float64()))
		checkCell(t, fmt.Sprintf("collinear %d", i), s, poolOf(s, pts), true)
		pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
		checkCell(t, fmt.Sprintf("collinear %d plus one", i), s, poolOf(s, pts), true)
	}
	s = self(geom.Pt(0.5, 0.5))
	if got := addrsOf(cellNeighbors(s, poolOf(s, []geom.Point{{X: 0.6, Y: 0.6}, {X: 0.9, Y: 0.9}, {X: 0.2, Y: 0.2}, {X: 0.1, Y: 0.1}}))); !slices.Equal(got, []string{"p000", "p002"}) {
		t.Fatalf("collinear both sides: %v, want the nearest on each side", got)
	}

	// Shadowing: a candidate at self's position is never a neighbour,
	// and of two at one position the lower address stands for both.
	for i := 0; i < 200; i++ {
		s, pts := uniformPool(rng, rng.Intn(12))
		me := self(s)
		pool := poolOf(me, pts)
		pool["a-twin"] = proto.NodeInfo{Addr: "a-twin", Pos: s}
		shadowed := []string{"a-twin", "z-shadow"}
		if len(pts) > 0 {
			j := rng.Intn(len(pts))
			pool["a-shadow"] = proto.NodeInfo{Addr: "a-shadow", Pos: pts[j]}
			pool["z-shadow"] = proto.NodeInfo{Addr: "z-shadow", Pos: pts[j]}
			shadowed = append(shadowed, fmt.Sprintf("p%03d", j))
		}
		for _, a := range addrsOf(cellNeighbors(me, pool)) {
			if slices.Contains(shadowed, a) {
				t.Fatalf("shadow pool %d: shadowed %s is a neighbour", i, a)
			}
		}
		checkCell(t, fmt.Sprintf("shadow %d", i), me, pool, true)
	}

	// Floating point misorders the distances of p000 and p001: p001 is
	// exactly nearer, inside p000's diametral circle, and with p002 it
	// shuts p000 out of the star, so a walk started from p000 answers
	// wrongly.
	s = self(geom.Pt(0, 0))
	near := []geom.Point{{X: 0.491201831161001, Y: 0.458435826352668},
		{X: 0.49120183116100097, Y: 0.45843582635266805}, {X: 0.4957861894245277, Y: 0.45352380804105796}}
	if geom.Dist2(s.Pos, near[0]) >= geom.Dist2(s.Pos, near[1]) {
		t.Fatal("the rounding case no longer rounds the wrong way")
	}
	checkCell(t, "misrounded nearest", s, poolOf(s, near), true)

	// Candidates outside the position domain are ignored; a self outside
	// it has no neighbours; tiny pools.
	bad := []geom.Point{{X: math.NaN(), Y: 0.3}, {X: math.Inf(1), Y: 0.3}, {X: 0.3, Y: math.Inf(-1)},
		{X: -1e100, Y: -1e103}, {X: 0.3, Y: 1e-300}}
	for i := 0; i < 100; i++ {
		s, pts := uniformPool(rng, rng.Intn(8))
		me := self(s)
		pool := poolOf(me, pts)
		for j, p := range bad {
			a := fmt.Sprintf("bad%d", j)
			pool[a] = proto.NodeInfo{Addr: a, Pos: p}
		}
		checkCell(t, fmt.Sprintf("out of domain %d", i), me, pool, false)
		for _, p := range bad {
			if got := cellNeighbors(self(p), poolOf(self(p), pts)); got != nil {
				t.Fatalf("self at %v has neighbours %v", p, got)
			}
		}
	}
	for k := 0; k <= 2; k++ {
		s, pts := uniformPool(rng, k)
		me := self(s)
		if got := cellNeighbors(me, poolOf(me, pts)); len(got) != k {
			t.Fatalf("%d candidates in general position: %d neighbours", k, len(got))
		}
	}
}

// uniformPool draws self and k candidates uniformly over the unit square.
func uniformPool(rng *rand.Rand, k int) (geom.Point, []geom.Point) {
	s := geom.Pt(rng.Float64(), rng.Float64())
	pts := make([]geom.Point, k)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return s, pts
}

var cellSink []proto.NodeInfo

// BenchmarkCellNeighbors times one neighbour computation over a pool of
// k uniform candidates (the size of a view change's candidate pool runs
// 12–40), next to the Delaunay reference the node used before.
func BenchmarkCellNeighbors(b *testing.B) {
	for _, k := range []int{12, 24, 40} {
		s, pts := uniformPool(rand.New(rand.NewSource(int64(k))), k)
		self := proto.NodeInfo{Addr: "self", Pos: s}
		pool := poolOf(self, pts)
		for _, alg := range []struct {
			name string
			f    func(proto.NodeInfo, map[string]proto.NodeInfo) []proto.NodeInfo
		}{{"cell", cellNeighbors}, {"delaunay", miniNeighbors}} {
			b.Run(fmt.Sprintf("%s/k=%d", alg.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cellSink = alg.f(self, pool)
				}
			})
		}
	}
}
