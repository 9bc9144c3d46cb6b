package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{6, 6, 6, 5, 7, 4} {
		h.Add(v)
	}
	if mode, c := h.Mode(); mode != 6 || c != 3 {
		t.Fatalf("mode %d/%d", mode, c)
	}
	if got := h.Mean(); math.Abs(got-34.0/6) > 1e-12 {
		t.Fatalf("mean %g", got)
	}
	if got := h.MassIn(5, 7); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("mass %g", got)
	}
	s := h.String()
	if !strings.Contains(s, "6\t3\n") {
		t.Fatalf("render: %q", s)
	}
	vs := h.values()
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			t.Fatal("values not sorted")
		}
	}
}

func TestRunning(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4} {
		r.Add(x)
	}
	if r.N() != 4 || r.Mean() != 2.5 || r.Max() != 4 {
		t.Fatalf("running stats wrong: %+v", r)
	}
	// Sample std of 1..4 = sqrt(5/3).
	if math.Abs(r.Std()-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("std %g", r.Std())
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	f := LinearFit(x, y)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit %+v", f)
	}
	if f.R2 < 1-1e-12 {
		t.Fatalf("R2 %g", f.R2)
	}
}

func TestLinearFitRecoversNoisyLine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(slope, intercept float64) bool {
		slope = math.Mod(slope, 10)
		intercept = math.Mod(intercept, 10)
		if math.IsNaN(slope) || math.IsNaN(intercept) {
			return true
		}
		var xs, ys []float64
		for i := 0; i < 200; i++ {
			x := float64(i) / 10
			xs = append(xs, x)
			ys = append(ys, slope*x+intercept+rng.NormFloat64()*0.01)
		}
		fit := LinearFit(xs, ys)
		return math.Abs(fit.Slope-slope) < 0.01 && math.Abs(fit.Intercept-intercept) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if f := LinearFit([]float64{1}, []float64{2}); f.Slope != 0 {
		t.Fatal("single point must not fit")
	}
	if f := LinearFit([]float64{1, 1}, []float64{2, 3}); f.Slope != 0 {
		t.Fatal("vertical line must not fit")
	}
	if f := LinearFit([]float64{1, 2}, []float64{5, 5}); f.Slope != 0 || f.R2 != 1 {
		t.Fatalf("horizontal line: %+v", f)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 %g", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 %g", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 %g", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty %g", got)
	}
}
