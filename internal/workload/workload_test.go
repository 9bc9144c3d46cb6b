package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformInSquare(t *testing.T) {
	u := &Uniform{Rand: rand.New(rand.NewSource(1))}
	var sx, sy float64
	n := 20000
	for i := 0; i < n; i++ {
		p := u.Next()
		if !p.InUnitSquare() {
			t.Fatalf("point %v outside unit square", p)
		}
		sx += p.X
		sy += p.Y
	}
	if math.Abs(sx/float64(n)-0.5) > 0.02 || math.Abs(sy/float64(n)-0.5) > 0.02 {
		t.Fatalf("uniform mean off: (%g, %g)", sx/float64(n), sy/float64(n))
	}
}

func TestPowerLawRankFrequencies(t *testing.T) {
	// The frequency of the i-th most popular value must be ∝ 1/i^α:
	// check the ratio of the two most popular cells.
	for _, alpha := range []float64{1, 2, 5} {
		p := newPowerLaw(alpha, rand.New(rand.NewSource(2)))
		n := 200000
		counts := make([]int, defaultValues)
		for i := 0; i < n; i++ {
			pt := p.Next()
			if pt.X < 0 || pt.X >= 1 || pt.Y < 0 || pt.Y >= 1 {
				t.Fatalf("alpha=%g: point %v out of range", alpha, pt)
			}
			counts[int(pt.X*float64(defaultValues))]++
		}
		ratio := float64(counts[0]) / float64(counts[1])
		want := math.Pow(2, alpha)
		if math.Abs(ratio-want) > 0.25*want {
			t.Errorf("alpha=%g: rank1/rank2 frequency ratio %.2f, want %.2f", alpha, ratio, want)
		}
	}
}

func TestPowerLawSkewOrdering(t *testing.T) {
	// Higher α concentrates more mass in the top cell.
	top := func(alpha float64) float64 {
		p := newPowerLaw(alpha, rand.New(rand.NewSource(3)))
		n := 50000
		c := 0
		for i := 0; i < n; i++ {
			if p.Next().X < 1/float64(defaultValues) {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	t1, t2, t5 := top(1), top(2), top(5)
	if !(t1 < t2 && t2 < t5) {
		t.Fatalf("top-cell mass not increasing with alpha: %g %g %g", t1, t2, t5)
	}
	if t5 < 0.9 {
		t.Fatalf("alpha=5 top-cell mass %g, want > 0.9 (1/ζ(5)² ≈ 0.93)", t5)
	}
}

func TestClustersStayInSquare(t *testing.T) {
	c := newClusters(5, 0.05, rand.New(rand.NewSource(4)))
	for i := 0; i < 5000; i++ {
		if !c.Next().InUnitSquare() {
			t.Fatal("cluster point escaped the unit square")
		}
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"uniform", "alpha1", "alpha2", "alpha5", "clusters"} {
		src := ByName(name, rng)
		if src == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if src.Name() == "" {
			t.Fatalf("%q has empty display name", name)
		}
		src.Next()
	}
	if ByName("bogus", rng) != nil {
		t.Fatal("unknown name must return nil")
	}
}

func TestZipfKeysHotKeyPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	z := NewZipfKeys(1.2, 16, rng)
	keys := z.keys
	if len(keys) != 16 {
		t.Fatalf("key set size %d", len(keys))
	}
	counts := map[int]int{}
	index := map[[2]float64]int{}
	for i, k := range keys {
		index[[2]float64{k.X, k.Y}] = i
	}
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := z.Next()
		idx, ok := index[[2]float64{k.X, k.Y}]
		if !ok {
			t.Fatalf("draw %v outside the fixed key set", k)
		}
		counts[idx]++
	}
	// Popularity must decrease with rank and concentrate on the head.
	if counts[0] <= counts[8] {
		t.Fatalf("rank 0 drawn %d times, rank 8 %d: not Zipf-skewed", counts[0], counts[8])
	}
	if float64(counts[0])/draws < 0.15 {
		t.Fatalf("hottest key has only %.3f of the mass", float64(counts[0])/draws)
	}
}
