package kleinberg

import (
	"math"
	"math/rand"
	"testing"
)

func TestRouteArrives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(30, 1, 2, rng)
	for i := 0; i < 200; i++ {
		a := rng.Int31n(int32(g.Nodes()))
		b := rng.Int31n(int32(g.Nodes()))
		h, err := g.route(a, b)
		if err != nil {
			t.Fatalf("route %d->%d: %v", a, b, err)
		}
		if h > g.dist(a, b)*2+1 && h > 4*g.N {
			t.Fatalf("greedy route absurdly long: %d hops for distance %d", h, g.dist(a, b))
		}
	}
}

func TestRouteNeverLongerThanLattice(t *testing.T) {
	// Long-range contacts only help: the greedy route is never longer than
	// the pure lattice route (greedy lattice distance strictly decreases).
	rng := rand.New(rand.NewSource(2))
	g := New(20, 1, 2, rng)
	for i := 0; i < 200; i++ {
		a := rng.Int31n(int32(g.Nodes()))
		b := rng.Int31n(int32(g.Nodes()))
		h, err := g.route(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if h > g.dist(a, b) {
			t.Fatalf("route %d hops exceeds lattice distance %d", h, g.dist(a, b))
		}
	}
}

func TestHarmonicExponentBeatsHighExponents(t *testing.T) {
	// Kleinberg's theorem: s = 2 is asymptotically optimal. At feasible
	// test sizes the optimum sits slightly below 2 (a well-known
	// finite-size effect — long jumps are cheap when the grid is small),
	// so we assert only the robust side: s = 2 clearly beats s = 3 and
	// s = 4, whose links are too short to be useful.
	rng := rand.New(rand.NewSource(3))
	n := 100
	mean := func(s float64) float64 {
		g := New(n, 1, s, rng)
		m, err := g.MeanRouteLength(2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m0 := mean(0)
	m2 := mean(2)
	m3 := mean(3)
	m4 := mean(4)
	t.Logf("mean hops: s=0 %.1f, s=2 %.1f, s=3 %.1f, s=4 %.1f", m0, m2, m3, m4)
	if m2 >= m3 {
		t.Fatalf("s=2 (%.1f hops) should beat s=3 (%.1f hops)", m2, m3)
	}
	if m2 >= m4 {
		t.Fatalf("s=2 (%.1f hops) should beat s=4 (%.1f hops)", m2, m4)
	}
}

func TestPolylogScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Mean hops should grow far slower than sqrt(nodes): compare n=40 and
	// n=120; lattice scaling would triple the mean, log² scaling adds ~35%.
	rng := rand.New(rand.NewSource(4))
	g1 := New(40, 1, 2, rng)
	g2 := New(120, 1, 2, rng)
	m1, err := g1.MeanRouteLength(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g2.MeanRouteLength(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m2 > m1*2.2 {
		t.Fatalf("scaling looks polynomial: %.1f -> %.1f hops", m1, m2)
	}
	want := math.Pow(math.Log(float64(g2.Nodes()))/math.Log(float64(g1.Nodes())), 2)
	t.Logf("hops %0.1f -> %0.1f (log² ratio would be %0.2f, got %0.2f)", m1, m2, want, m2/m1)
}

func TestMultipleContacts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g1 := New(60, 1, 2, rng)
	g4 := New(60, 4, 2, rng)
	m1, err := g1.MeanRouteLength(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := g4.MeanRouteLength(1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m4 >= m1 {
		t.Fatalf("4 contacts (%.1f) should beat 1 contact (%.1f)", m4, m1)
	}
	for v := range g4.long {
		if len(g4.long[v]) != 4 {
			t.Fatalf("node %d has %d contacts", v, len(g4.long[v]))
		}
	}
}

func BenchmarkKleinbergRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := New(150, 1, 2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Int31n(int32(g.Nodes()))
		t := rng.Int31n(int32(g.Nodes()))
		if _, err := g.route(a, t); err != nil {
			b.Fatal(err)
		}
	}
}
