package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// ratOrient2D is a reference implementation of Orient2D over exact
// rationals. Every float64 is exactly representable as a big.Rat, so this is
// ground truth.
func ratOrient2D(a, b, c Point) int {
	ax := new(big.Rat).SetFloat64(a.X)
	ay := new(big.Rat).SetFloat64(a.Y)
	bx := new(big.Rat).SetFloat64(b.X)
	by := new(big.Rat).SetFloat64(b.Y)
	cx := new(big.Rat).SetFloat64(c.X)
	cy := new(big.Rat).SetFloat64(c.Y)

	l := new(big.Rat).Mul(new(big.Rat).Sub(ax, cx), new(big.Rat).Sub(by, cy))
	r := new(big.Rat).Mul(new(big.Rat).Sub(ay, cy), new(big.Rat).Sub(bx, cx))
	return l.Cmp(r)
}

// ratInCircle is a reference implementation of InCircle over exact
// rationals.
func ratInCircle(a, b, c, d Point) int {
	toRat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	dx := toRat(d.X)
	dy := toRat(d.Y)
	col := func(p Point) (x, y, lift *big.Rat) {
		x = new(big.Rat).Sub(toRat(p.X), dx)
		y = new(big.Rat).Sub(toRat(p.Y), dy)
		lift = new(big.Rat).Add(new(big.Rat).Mul(x, x), new(big.Rat).Mul(y, y))
		return
	}
	ax, ay, al := col(a)
	bx, by, bl := col(b)
	cx, cy, cl := col(c)

	// det = al*(bx*cy-by*cx) - bl*(ax*cy-ay*cx) + cl*(ax*by-ay*bx)
	m1 := new(big.Rat).Sub(new(big.Rat).Mul(bx, cy), new(big.Rat).Mul(by, cx))
	m2 := new(big.Rat).Sub(new(big.Rat).Mul(ax, cy), new(big.Rat).Mul(ay, cx))
	m3 := new(big.Rat).Sub(new(big.Rat).Mul(ax, by), new(big.Rat).Mul(ay, bx))
	det := new(big.Rat).Mul(al, m1)
	det.Sub(det, new(big.Rat).Mul(bl, m2))
	det.Add(det, new(big.Rat).Mul(cl, m3))
	return det.Sign()
}

func TestOrient2DBasic(t *testing.T) {
	a, b := Pt(0, 0), Pt(1, 0)
	if got := Orient2D(a, b, Pt(0, 1)); got != 1 {
		t.Errorf("ccw triple: got %d, want 1", got)
	}
	if got := Orient2D(a, b, Pt(0, -1)); got != -1 {
		t.Errorf("cw triple: got %d, want -1", got)
	}
	if got := Orient2D(a, b, Pt(2, 0)); got != 0 {
		t.Errorf("collinear triple: got %d, want 0", got)
	}
	if got := Orient2D(a, b, b); got != 0 {
		t.Errorf("duplicate point: got %d, want 0", got)
	}
}

func TestOrient2DExactCollinear(t *testing.T) {
	// Dyadic coordinates: p, p+d, p+2d computed without any rounding, so the
	// triple is exactly collinear and only the exact path can certify it.
	p := Pt(0.5, 0.25)
	d := Pt(0.25, 0.125)
	q := p.Add(d)
	r := p.Add(d.Scale(2))
	if got := Orient2D(p, q, r); got != 0 {
		t.Errorf("exactly collinear: got %d, want 0", got)
	}
}

func TestOrient2DNearDegenerate(t *testing.T) {
	// Shewchuk's classic stress: points nearly collinear, differing by one ulp.
	base := Pt(12.0, 12.0)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			a := Pt(0.5+float64(i)*epsilon, 0.5+float64(i)*epsilon)
			b := base
			c := Pt(24.0+float64(j)*epsilon, 24.0+float64(j)*epsilon)
			want := ratOrient2D(a, b, c)
			if got := Orient2D(a, b, c); got != want {
				t.Fatalf("Orient2D(%v,%v,%v) = %d, want %d", a, b, c, got, want)
			}
		}
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) (ccw).
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if got := InCircle(a, b, c, Pt(0, 0)); got != 1 {
		t.Errorf("centre: got %d, want 1 (inside)", got)
	}
	if got := InCircle(a, b, c, Pt(2, 2)); got != -1 {
		t.Errorf("far point: got %d, want -1 (outside)", got)
	}
	if got := InCircle(a, b, c, Pt(0, -1)); got != 0 {
		t.Errorf("co-circular point: got %d, want 0", got)
	}
}

func TestInCircleCocircularGrid(t *testing.T) {
	// The four corners of any axis-aligned square are co-circular. Grid
	// workloads (jittered Zipf) produce these; the predicate must return 0.
	for _, s := range []float64{1, 0.5, 1.0 / 3.0, 1e-9} {
		a, b, c, d := Pt(0, 0), Pt(s, 0), Pt(s, s), Pt(0, s)
		if got := InCircle(a, b, c, d); got != 0 {
			t.Errorf("square side %g: got %d, want 0", s, got)
		}
	}
}

func TestPredicatesMatchExactReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() Point {
		// Mix of scales, including clustered coordinates that defeat the
		// floating-point filter.
		switch rng.Intn(3) {
		case 0:
			return Pt(rng.Float64(), rng.Float64())
		case 1:
			base := 0.5
			return Pt(base+rng.Float64()*1e-12, base+rng.Float64()*1e-12)
		default:
			// Exact grid points: guaranteed collinear/co-circular cases.
			return Pt(float64(rng.Intn(4))*0.25, float64(rng.Intn(4))*0.25)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b, c, d := gen(), gen(), gen(), gen()
		if got, want := Orient2D(a, b, c), ratOrient2D(a, b, c); got != want {
			t.Fatalf("Orient2D(%v,%v,%v) = %d, want %d", a, b, c, got, want)
		}
		if got, want := InCircle(a, b, c, d), ratInCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle(%v,%v,%v,%v) = %d, want %d", a, b, c, d, got, want)
		}
	}
}

// TestPredicatesExactOnDomain draws points at the edges of the position
// domain — magnitudes at maxCoord and minCoord, a few ulps apart, mixed
// with zeros and every scale between — and requires both predicates to
// match the rational reference. Far past the top edge InCircle's float
// arithmetic overflows and the sign comes out wrong.
func TestPredicatesExactOnDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	coord := func() float64 {
		var v float64
		switch rng.Intn(5) {
		case 0:
			v = maxCoord
		case 1:
			v = minCoord
		case 2:
			return 0
		default:
			v = math.Ldexp(1, -64+rng.Intn(97))
		}
		for k := rng.Intn(3); k > 0; k-- {
			v = math.Nextafter(v, 1) // up from minCoord, down from maxCoord
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	gen := func() Point {
		p := Pt(coord(), coord())
		if !InDomain(p) {
			t.Fatalf("%v is outside the domain", p)
		}
		return p
	}
	for i := 0; i < 10000; i++ {
		a, b, c, d := gen(), gen(), gen(), gen()
		if got, want := Orient2D(a, b, c), ratOrient2D(a, b, c); got != want {
			t.Fatalf("Orient2D(%v,%v,%v) = %d, want %d", a, b, c, got, want)
		}
		if got, want := InCircle(a, b, c, d), ratInCircle(a, b, c, d); got != want {
			t.Fatalf("InCircle(%v,%v,%v,%v) = %d, want %d", a, b, c, d, got, want)
		}
	}
	for _, p := range []Point{
		Pt(maxCoord, -maxCoord), Pt(minCoord, 0), Pt(0, -minCoord),
	} {
		if !InDomain(p) {
			t.Errorf("%v is refused", p)
		}
	}
	for _, p := range []Point{
		Pt(math.Nextafter(maxCoord, 2*maxCoord), 0), Pt(0, -math.Nextafter(minCoord, 0)),
		Pt(math.NaN(), 0.5), Pt(0.5, math.Inf(-1)), Pt(-1e100, -1e103),
	} {
		if InDomain(p) {
			t.Errorf("%v is admitted", p)
		}
	}
	// Far past the bound: d is inside the circle through a, b, c, but
	// the lifted terms overflow to infinity.
	s := 1e100
	a, b, c, d := Pt(0, -s), Pt(s, 0), Pt(0, s), Pt(-s/2, 0)
	if got, want := InCircle(a, b, c, d), ratInCircle(a, b, c, d); got == want {
		t.Errorf("InCircle at %g agrees with the reference (%d); the bound guards nothing", s, got)
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if !finitePts(a, b, c) {
			return true
		}
		return Orient2D(a, b, c) == -Orient2D(b, a, c) &&
			Orient2D(a, b, c) == Orient2D(b, c, a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestInCircleSymmetry(t *testing.T) {
	// InCircle is invariant under cyclic permutation of the triangle and
	// flips sign when the triangle orientation flips.
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a, b, c, d := Pt(ax, ay), Pt(bx, by), Pt(cx, cy), Pt(dx, dy)
		if !finitePts(a, b, c, d) {
			return true
		}
		s := InCircle(a, b, c, d)
		return s == InCircle(b, c, a, d) && s == -InCircle(b, a, c, d)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestExpansionArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		x, y := twoSum(a, b)
		if ratNE(ratAdd(a, b), ratAdd(x, y)) {
			t.Fatalf("twoSum(%g,%g) not exact", a, b)
		}
		x, y = twoDiff(a, b)
		if ratNE(ratSub(a, b), ratAdd(x, y)) {
			t.Fatalf("twoDiff(%g,%g) not exact", a, b)
		}
		x, y = twoProd(a, b)
		if ratNE(ratMul(a, b), ratAdd(x, y)) {
			t.Fatalf("twoProd(%g,%g) not exact", a, b)
		}
	}
}

func TestExpansionSumAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		e := newExp2(twoProd(rng.NormFloat64(), rng.NormFloat64()))
		f := newExp2(twoProd(rng.NormFloat64(), rng.NormFloat64()))
		sum := fastExpansionSum(e, f)
		if ratNE(ratOfExp(sum), new(big.Rat).Add(ratOfExp(e), ratOfExp(f))) {
			t.Fatalf("fastExpansionSum wrong for %v + %v", e, f)
		}
		s := rng.NormFloat64()
		sc := scaleExpansion(e, s)
		if ratNE(ratOfExp(sc), new(big.Rat).Mul(ratOfExp(e), new(big.Rat).SetFloat64(s))) {
			t.Fatalf("scaleExpansion wrong for %v * %g", e, s)
		}
		prod := mulExpansion(e, f)
		if ratNE(ratOfExp(prod), new(big.Rat).Mul(ratOfExp(e), ratOfExp(f))) {
			t.Fatalf("mulExpansion wrong for %v * %v", e, f)
		}
	}
}

func TestClosestPointOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	cases := []struct {
		p, want Point
	}{
		{Pt(5, 3), Pt(5, 0)},
		{Pt(-4, 2), Pt(0, 0)},
		{Pt(14, -2), Pt(10, 0)},
		{Pt(0, 0), Pt(0, 0)},
	}
	for _, tc := range cases {
		if got := ClosestPointOnSegment(tc.p, a, b); Dist(got, tc.want) > 1e-12 {
			t.Errorf("ClosestPointOnSegment(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate segment.
	if got := ClosestPointOnSegment(Pt(3, 4), a, a); got != a {
		t.Errorf("degenerate segment: got %v, want %v", got, a)
	}
}

// --- helpers ---

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(1)),
		Values:   nil,
	}
}

func finitePts(ps ...Point) bool {
	for _, p := range ps {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return false
		}
		// Keep magnitudes sane so reference computations stay fast.
		if math.Abs(p.X) > 1e30 || math.Abs(p.Y) > 1e30 {
			return false
		}
	}
	return true
}

func ratAdd(a, b float64) *big.Rat {
	return new(big.Rat).Add(new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(b))
}
func ratSub(a, b float64) *big.Rat {
	return new(big.Rat).Sub(new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(b))
}
func ratMul(a, b float64) *big.Rat {
	return new(big.Rat).Mul(new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(b))
}
func ratOfExp(e expansion) *big.Rat {
	s := new(big.Rat)
	for _, c := range e {
		s.Add(s, new(big.Rat).SetFloat64(c))
	}
	return s
}
func ratNE(a, b *big.Rat) bool { return a.Cmp(b) != 0 }

func BenchmarkOrient2DFastPath(b *testing.B) {
	p, q, r := Pt(0.1, 0.2), Pt(0.9, 0.3), Pt(0.4, 0.8)
	for i := 0; i < b.N; i++ {
		Orient2D(p, q, r)
	}
}

func BenchmarkOrient2DExactPath(b *testing.B) {
	p := Pt(0.1, 0.7)
	d := Pt(0.25, 0.125)
	q := p.Add(d)
	r := p.Add(d.Scale(2))
	for i := 0; i < b.N; i++ {
		Orient2D(p, q, r)
	}
}

func BenchmarkInCircleFastPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		InCircle(Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(0.3, 0.2))
	}
}

func BenchmarkInCircleExactPath(b *testing.B) {
	a, c, d, e := Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)
	for i := 0; i < b.N; i++ {
		InCircle(a, c, d, e)
	}
}
