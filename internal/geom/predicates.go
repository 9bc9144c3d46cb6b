package geom

import "math"

// Error-bound coefficients for the floating-point filters, after Shewchuk.
// epsilon is half an ulp of 1.0 (2^-53): the largest power of two such that
// 1.0 + epsilon rounds to 1.0 under round-to-nearest.
const (
	epsilon = 1.0 / (1 << 53)

	ccwErrBoundA = (3.0 + 16.0*epsilon) * epsilon
	iccErrBoundA = (10.0 + 96.0*epsilon) * epsilon
)

// Orient2D returns the orientation of the ordered triple (a, b, c):
//
//	+1 if they make a counterclockwise turn (c lies left of a→b),
//	-1 if they make a clockwise turn,
//	 0 if they are exactly collinear.
//
// The result is the exact sign of the determinant
//
//	| a.X-c.X  a.Y-c.Y |
//	| b.X-c.X  b.Y-c.Y |
func Orient2D(a, b, c Point) int {
	detLeft := (a.X - c.X) * (b.Y - c.Y)
	detRight := (a.Y - c.Y) * (b.X - c.X)
	det := detLeft - detRight

	var detSum float64
	switch {
	case detLeft > 0:
		if detRight <= 0 {
			return signOf(det)
		}
		detSum = detLeft + detRight
	case detLeft < 0:
		if detRight >= 0 {
			return signOf(det)
		}
		detSum = -detLeft - detRight
	default:
		// detLeft == 0: det == -detRight computed exactly.
		return signOf(det)
	}

	errBound := ccwErrBoundA * detSum
	if det >= errBound || -det >= errBound {
		return signOf(det)
	}
	return orient2DExact(a, b, c)
}

// orient2DExact evaluates the orientation determinant with exact expansion
// arithmetic.
func orient2DExact(a, b, c Point) int {
	acx := newExp2(twoDiff(a.X, c.X))
	bcy := newExp2(twoDiff(b.Y, c.Y))
	acy := newExp2(twoDiff(a.Y, c.Y))
	bcx := newExp2(twoDiff(b.X, c.X))
	left := mulExpansion(acx, bcy)
	right := mulExpansion(acy, bcx)
	return subExpansion(left, right).sign()
}

// InCircle returns the position of d relative to the circle through a, b, c:
//
//	+1 if d lies strictly inside the circumcircle of the
//	   counterclockwise-oriented triangle abc,
//	-1 if strictly outside,
//	 0 if exactly on the circle.
//
// If abc is clockwise the sign is reversed (standard determinant symmetry);
// callers in this module always pass counterclockwise triangles.
func InCircle(a, b, c, d Point) int {
	adx := a.X - d.X
	bdx := b.X - d.X
	cdx := c.X - d.X
	ady := a.Y - d.Y
	bdy := b.Y - d.Y
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	errBound := iccErrBoundA * permanent
	if det > errBound || -det > errBound {
		return signOf(det)
	}
	return inCircleExact(a, b, c, d)
}

// inCircleExact evaluates the incircle determinant with exact expansion
// arithmetic:
//
//	det = (adx·bdy − ady·bdx)·(cdx²+cdy²)
//	    + (bdx·cdy − bdy·cdx)·(adx²+ady²)
//	    + (cdx·ady − cdy·adx)·(bdx²+bdy²)
func inCircleExact(a, b, c, d Point) int {
	adx := newExp2(twoDiff(a.X, d.X))
	ady := newExp2(twoDiff(a.Y, d.Y))
	bdx := newExp2(twoDiff(b.X, d.X))
	bdy := newExp2(twoDiff(b.Y, d.Y))
	cdx := newExp2(twoDiff(c.X, d.X))
	cdy := newExp2(twoDiff(c.Y, d.Y))

	ab := subExpansion(mulExpansion(adx, bdy), mulExpansion(ady, bdx))
	bc := subExpansion(mulExpansion(bdx, cdy), mulExpansion(bdy, cdx))
	ca := subExpansion(mulExpansion(cdx, ady), mulExpansion(cdy, adx))

	aLift := fastExpansionSum(mulExpansion(adx, adx), mulExpansion(ady, ady))
	bLift := fastExpansionSum(mulExpansion(bdx, bdx), mulExpansion(bdy, bdy))
	cLift := fastExpansionSum(mulExpansion(cdx, cdx), mulExpansion(cdy, cdy))

	det := fastExpansionSum(
		fastExpansionSum(mulExpansion(ab, cLift), mulExpansion(bc, aLift)),
		mulExpansion(ca, bLift),
	)
	return det.sign()
}

func signOf(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
