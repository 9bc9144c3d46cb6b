package kleinberg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSampleRadiusFollowsDHarmonicLaw verifies the long-range contact
// radius sampler against the d-harmonic law it implements. In d = 2, a
// contact at lattice distance r is chosen with probability ∝ r^(−s) and
// there are ∝ r candidates at distance r, so the radius density is
// ∝ r^(1−s): log-uniform for the critical exponent s = 2, and CDF
// (r^e − rmin^e)/(rmax^e − rmin^e) with e = 2−s otherwise. The observed
// bucket counts under a fixed seed are χ²-tested against the analytic
// expectation.
func TestSampleRadiusFollowsDHarmonicLaw(t *testing.T) {
	const (
		rmin, rmax = 1.0, 512.0
		samples    = 40000
		buckets    = 16
	)
	// χ² critical value for buckets−1 = 15 degrees of freedom at
	// α = 0.001; a correct sampler under a fixed seed sits far below it.
	const critical = 37.70

	cdf := func(s, r float64) float64 {
		if s == 2 {
			return math.Log(r/rmin) / math.Log(rmax/rmin)
		}
		e := 2 - s
		return (math.Pow(r, e) - math.Pow(rmin, e)) / (math.Pow(rmax, e) - math.Pow(rmin, e))
	}

	for _, s := range []float64{1, 2, 3} {
		rng := rand.New(rand.NewSource(20070326))
		// Log-spaced bucket edges keep every expectation well above the
		// χ²-approximation floor (≥ 5 observations) for all exponents.
		edges := make([]float64, buckets+1)
		for i := range edges {
			edges[i] = rmin * math.Pow(rmax/rmin, float64(i)/buckets)
		}
		observed := make([]float64, buckets)
		for i := 0; i < samples; i++ {
			r := SampleRadius(rmin, rmax, s, rng.Float64())
			if r < rmin || r > rmax {
				t.Fatalf("s=%g: radius %g outside [%g,%g]", s, r, rmin, rmax)
			}
			lo, hi := 0, buckets-1
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if r >= edges[mid] {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			observed[lo]++
		}
		expected := make([]float64, buckets)
		for i := range expected {
			expected[i] = samples * (cdf(s, edges[i+1]) - cdf(s, edges[i]))
			if expected[i] < 5 {
				t.Fatalf("s=%g: bucket %d expectation %.2f too small for χ²", s, i, expected[i])
			}
		}
		chi2 := chiSquared(observed, expected)
		t.Logf("s=%g: χ² = %.2f (critical %.2f at 15 dof, α=0.001)", s, chi2, critical)
		if chi2 > critical {
			t.Fatalf("s=%g: χ² = %.2f exceeds %.2f — radius sampling does not follow the d-harmonic law", s, chi2, critical)
		}
	}
}

// TestGridContactsRespectExponentShape is a coarse structural check on the
// full contact sampler (radius + angle + grid clipping): under the
// critical exponent the contact distances must spread across scales —
// each factor-of-4 annulus of the reachable range gets a non-trivial
// share — rather than collapse to short range as s = 3 does.
func TestGridContactsRespectExponentShape(t *testing.T) {
	const n, k = 64, 3
	shareBeyond := func(s float64, d int) float64 {
		g := New(n, k, s, rand.New(rand.NewSource(9)))
		far, total := 0, 0
		for v := 0; v < g.Nodes(); v++ {
			for _, c := range g.long[v] {
				total++
				if g.dist(int32(v), c) >= d {
					far++
				}
			}
		}
		return float64(far) / float64(total)
	}
	farAt2 := shareBeyond(2, 16)
	farAt3 := shareBeyond(3, 16)
	if farAt2 < 0.10 {
		t.Fatalf("s=2: only %.3f of contacts reach distance ≥ 16; the small world lost its long range", farAt2)
	}
	if farAt3 > farAt2/2 {
		t.Fatalf("s=3 (%.3f) should be much shorter-ranged than s=2 (%.3f)", farAt3, farAt2)
	}
}

// chiSquared returns the χ² statistic Σ (obs−exp)²/exp for observed bucket
// counts against expected counts. Buckets with non-positive expectation
// are skipped (they carry no information). Statistical tests compare the
// result against a critical value for their degrees of freedom.
func chiSquared(observed, expected []float64) float64 {
	if len(observed) != len(expected) {
		return math.Inf(1)
	}
	s := 0.0
	for i := range observed {
		if expected[i] <= 0 {
			continue
		}
		d := observed[i] - expected[i]
		s += d * d / expected[i]
	}
	return s
}

func TestChiSquared(t *testing.T) {
	// Perfect agreement scores zero.
	if got := chiSquared([]float64{10, 20, 30}, []float64{10, 20, 30}); got != 0 {
		t.Fatalf("exact fit scored %g", got)
	}
	// One bucket off by its own expectation contributes exactly 1·exp/exp.
	if got := chiSquared([]float64{20, 20}, []float64{10, 20}); got != 10 {
		t.Fatalf("single deviation scored %g, want 10", got)
	}
	// Zero-expectation buckets are skipped, not divided by.
	if got := chiSquared([]float64{5, 10}, []float64{0, 10}); got != 0 {
		t.Fatalf("zero-expectation bucket scored %g", got)
	}
	// Length mismatch is an unconditional rejection.
	if got := chiSquared([]float64{1}, []float64{1, 2}); !math.IsInf(got, 1) {
		t.Fatalf("length mismatch scored %g", got)
	}
}
