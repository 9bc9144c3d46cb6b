package node

import (
	"fmt"
	"math/big"
	"slices"
	"strings"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// cellNeighbors returns the Voronoi neighbours of self among the
// candidates of pool, sorted by address: the candidates whose Voronoi
// edge with self, in the diagram of self and the pool, has positive
// length. Self's own entry in pool, if any, is ignored.
//
// The rule, decided with the exact predicates alone:
//   - of several candidates on one empty circle through self, only the
//     two that bound the run around the circle are neighbours; the others
//     would share a zero-length edge with self;
//   - a candidate at self's position is shadowed by self, and of several
//     candidates sharing a position the lower address stands for all;
//   - a candidate outside the position domain (geom.InDomain: a NaN,
//     infinite, far-off or tiny non-zero coordinate) is ignored, and a
//     self there has no neighbours.
//
// It walks the star of self. The nearest candidate is a neighbour; from
// neighbour q the next one counter-clockwise is found by one scan
// (nextAround). The walk ends back at the nearest, or at a neighbour with
// nothing to its left when self is on the pool's hull, and then goes on
// clockwise from the nearest. That is O(k·d) predicate calls for k
// candidates and d neighbours: no triangulation is built.
func cellNeighbors(self proto.NodeInfo, pool map[string]proto.NodeInfo) []proto.NodeInfo {
	s := self.Pos
	if !geom.InDomain(s) {
		return nil
	}
	cand := make([]proto.NodeInfo, 0, len(pool))
	for _, c := range pool {
		if c.Addr != self.Addr && c.Pos != s && geom.InDomain(c.Pos) {
			cand = append(cand, c)
		}
	}
	first := nearestCand(s, cand, nil)
	if first < 0 {
		return nil
	}
	f := cand[first].Pos
	out := make([]proto.NodeInfo, 1, 8)
	out[0] = cand[first]
	// Every step adds a distinct neighbour, so len(cand) bounds the walk.
	for dir, q := 1, f; len(out) < len(cand); {
		r := nextAround(s, q, cand, dir)
		if r >= 0 && cand[r].Pos == f {
			break // the walk closed: self is inside the pool's hull
		}
		if r < 0 {
			if dir < 0 {
				break
			}
			dir, q = -1, f
			continue
		}
		out = append(out, cand[r])
		q = cand[r].Pos
	}
	if len(out) == 1 {
		// Nothing lies strictly left or right of self→first: every
		// candidate is on one line through self, and the nearest one on
		// the far side of self, if any, is the other neighbour.
		if far := nearestCand(s, cand, func(p geom.Point) bool { return beyond(s, f, p) }); far >= 0 {
			out = append(out, cand[far])
		}
	}
	slices.SortFunc(out, func(a, b proto.NodeInfo) int { return strings.Compare(a.Addr, b.Addr) })
	return out
}

// nearestCand returns the index of the candidate nearest to s among
// those keep (nil for all) accepts, the lower address on a tie, or -1 if
// there is none.
func nearestCand(s geom.Point, cand []proto.NodeInfo, keep func(geom.Point) bool) int {
	best := -1
	for i := range cand {
		c := &cand[i]
		if keep != nil && !keep(c.Pos) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &cand[best]
		if d := cmpDist(s, c.Pos, b.Pos); d < 0 || d == 0 && c.Addr < b.Addr {
			best = i
		}
	}
	return best
}

// nextAround is one step of cellNeighbors' walk around s from neighbour
// q: counter-clockwise for dir = 1, clockwise for dir = -1. Among the
// candidates strictly on the dir side of s→q it keeps the one whose
// circle through s and q holds none of the others inside; of several on
// that circle, the one furthest in dir; of several at one position, the
// lowest address. It returns that candidate's index, or -1 when that
// side is empty.
func nextAround(s, q geom.Point, cand []proto.NodeInfo, dir int) int {
	r := -1
	for i := range cand {
		c := &cand[i]
		if geom.Orient2D(s, q, c.Pos) != dir {
			continue
		}
		if r < 0 {
			r = i
			continue
		}
		rp := cand[r].Pos
		// InCircle wants its triangle counter-clockwise: (s, q, r) is for
		// dir = 1, (s, r, q) for dir = -1.
		var in int
		if dir > 0 {
			in = geom.InCircle(s, q, rp, c.Pos)
		} else {
			in = geom.InCircle(s, rp, q, c.Pos)
		}
		if in > 0 {
			r = i
		} else if in == 0 {
			// On the circle, and also on the line through s and r, is at
			// r's position.
			if o := geom.Orient2D(s, rp, c.Pos); o == dir || o == 0 && c.Addr < cand[r].Addr {
				r = i
			}
		}
	}
	return r
}

// beyond reports whether c, known to lie on the line through s and a,
// is on the other side of s from a.
func beyond(s, a, c geom.Point) bool {
	if a.X != s.X {
		return c.X != s.X && (c.X < s.X) != (a.X < s.X)
	}
	return c.Y != s.Y && (c.Y < s.Y) != (a.Y < s.Y)
}

// cmpDist compares |a−s| with |b−s| exactly. The squared distances in
// floating point decide unless they lie within their rounding error of
// each other (4.5 ulps relative each, plus underflow); rational
// arithmetic settles the rest, such as the equal distances of a lattice.
func cmpDist(s, a, b geom.Point) int {
	da, db := geom.Dist2(s, a), geom.Dist2(s, b)
	bound := 1e-15*(da+db) + 1e-300
	switch {
	case da < db-bound:
		return -1
	case da > db+bound:
		return 1
	}
	return exactDist2(s, a).Cmp(exactDist2(s, b))
}

// exactDist2 is |p−s|² in rational arithmetic.
func exactDist2(s, p geom.Point) *big.Rat {
	sq := func(u, v float64) *big.Rat {
		d := new(big.Rat).Sub(new(big.Rat).SetFloat64(u), new(big.Rat).SetFloat64(v))
		return d.Mul(d, d)
	}
	d := sq(p.X, s.X)
	return d.Add(d, sq(p.Y, s.Y))
}

// checkPosition refuses an own position outside the position domain: no
// overlay has a region for it, and every peer would drop its frames.
func checkPosition(p geom.Point) error {
	if !geom.InDomain(p) {
		return fmt.Errorf("node: position %v is outside the position domain", p)
	}
	return nil
}
