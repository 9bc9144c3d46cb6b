package geom

import "math"

// Floating-point expansion arithmetic after Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates" (1997).
//
// An expansion is a slice of float64 components of increasing magnitude
// whose exact sum is the represented value, with the components pairwise
// non-overlapping. All operations below preserve that invariant (with zero
// elimination), so the sign of an expansion is the sign of its last
// component. Two_Product uses math.FMA, which is exact and removes the need
// for Shewchuk's splitter.

// twoSum returns x, y with a + b = x + y exactly and x = fl(a+b).
func twoSum(a, b float64) (x, y float64) {
	x = a + b
	bVirt := x - a
	aVirt := x - bVirt
	bRound := b - bVirt
	aRound := a - aVirt
	y = aRound + bRound
	return
}

// fastTwoSum is twoSum under the precondition |a| >= |b|.
func fastTwoSum(a, b float64) (x, y float64) {
	x = a + b
	bVirt := x - a
	y = b - bVirt
	return
}

// twoDiff returns x, y with a - b = x + y exactly and x = fl(a-b).
func twoDiff(a, b float64) (x, y float64) {
	x = a - b
	bVirt := a - x
	aVirt := x + bVirt
	bRound := bVirt - b
	aRound := a - aVirt
	y = aRound + bRound
	return
}

// twoProd returns x, y with a * b = x + y exactly and x = fl(a*b).
func twoProd(a, b float64) (x, y float64) {
	x = a * b
	y = math.FMA(a, b, -x)
	return
}

// expansion is a non-overlapping float64 expansion, components ordered by
// increasing magnitude, zeros eliminated (except the canonical zero {0}).
type expansion []float64

// sign returns -1, 0 or +1 according to the exact sum of e.
func (e expansion) sign() int {
	if len(e) == 0 {
		return 0
	}
	last := e[len(e)-1]
	switch {
	case last > 0:
		return 1
	case last < 0:
		return -1
	default:
		return 0
	}
}

// newExp2 builds a two-component expansion from the (hi, lo) pair produced
// by twoSum / twoDiff / twoProd.
func newExp2(hi, lo float64) expansion {
	if lo == 0 {
		if hi == 0 {
			return expansion{0}
		}
		return expansion{hi}
	}
	return expansion{lo, hi}
}

// fastExpansionSum returns the exact sum of expansions e and f with zero
// elimination (Shewchuk's FAST_EXPANSION_SUM_ZEROELIM).
func fastExpansionSum(e, f expansion) expansion {
	elen, flen := len(e), len(f)
	if elen == 0 {
		return f
	}
	if flen == 0 {
		return e
	}
	h := make(expansion, 0, elen+flen)
	enow, fnow := e[0], f[0]
	eindex, findex := 0, 0
	var q float64
	if (fnow > enow) == (fnow > -enow) {
		q = enow
		eindex++
	} else {
		q = fnow
		findex++
	}
	var hh float64
	if eindex < elen && findex < flen {
		enow = e[eindex]
		fnow = f[findex]
		if (fnow > enow) == (fnow > -enow) {
			q, hh = fastTwoSum(enow, q)
			eindex++
		} else {
			q, hh = fastTwoSum(fnow, q)
			findex++
		}
		if hh != 0 {
			h = append(h, hh)
		}
		for eindex < elen && findex < flen {
			enow = e[eindex]
			fnow = f[findex]
			if (fnow > enow) == (fnow > -enow) {
				q, hh = twoSum(q, enow)
				eindex++
			} else {
				q, hh = twoSum(q, fnow)
				findex++
			}
			if hh != 0 {
				h = append(h, hh)
			}
		}
	}
	for eindex < elen {
		q, hh = twoSum(q, e[eindex])
		eindex++
		if hh != 0 {
			h = append(h, hh)
		}
	}
	for findex < flen {
		q, hh = twoSum(q, f[findex])
		findex++
		if hh != 0 {
			h = append(h, hh)
		}
	}
	if q != 0 || len(h) == 0 {
		h = append(h, q)
	}
	return h
}

// scaleExpansion returns the exact product e · b with zero elimination
// (Shewchuk's SCALE_EXPANSION_ZEROELIM).
func scaleExpansion(e expansion, b float64) expansion {
	if len(e) == 0 || b == 0 {
		return expansion{0}
	}
	h := make(expansion, 0, 2*len(e))
	q, hh := twoProd(e[0], b)
	if hh != 0 {
		h = append(h, hh)
	}
	for i := 1; i < len(e); i++ {
		p1, p0 := twoProd(e[i], b)
		var sum float64
		sum, hh = twoSum(q, p0)
		if hh != 0 {
			h = append(h, hh)
		}
		q, hh = fastTwoSum(p1, sum)
		if hh != 0 {
			h = append(h, hh)
		}
	}
	if q != 0 || len(h) == 0 {
		h = append(h, q)
	}
	return h
}

// mulExpansion returns the exact product of two expansions by distributing
// scaleExpansion over the components of the shorter operand.
func mulExpansion(e, f expansion) expansion {
	if len(f) > len(e) {
		e, f = f, e
	}
	acc := expansion{0}
	for _, c := range f {
		if c == 0 {
			continue
		}
		acc = fastExpansionSum(acc, scaleExpansion(e, c))
	}
	return acc
}

// negExpansion returns -e.
func negExpansion(e expansion) expansion {
	h := make(expansion, len(e))
	for i, c := range e {
		h[i] = -c
	}
	return h
}

// subExpansion returns the exact difference e - f.
func subExpansion(e, f expansion) expansion {
	return fastExpansionSum(e, negExpansion(f))
}
