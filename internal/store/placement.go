package store

import "voronet/internal/geom"

// Placement, stated once: a record lives at Obj(key) — the candidate
// nearest to the key — and on the r Voronoi neighbours of that owner
// nearest to the key. The two selections below are that rule; the
// simulator store, the live node and the chaos checker all rank through
// them, so a reader's "am I a replica?" and a writer's "who gets a copy?"
// cannot drift apart.
//
// Candidates are named by index: at(i) returns candidate i's position, or
// false to leave it out (a departed peer, an excluded sender). Ties go to
// the lower index, so a caller that wants ties settled by address passes
// an address-sorted list — every view list in internal/node is one.

// Nearest returns the index of the candidate nearest to key, or -1 when
// every candidate is left out.
func Nearest(n int, key geom.Point, at func(i int) (geom.Point, bool)) int {
	i, _ := nextNearest(n, key, at, -1, -1)
	return i
}

// Closest appends to buf[:0] the indices of the r candidates nearest to
// key, nearest first (fewer when fewer take part), and returns it. It
// allocates nothing when buf has room for r.
func Closest(buf []int, r, n int, key geom.Point, at func(i int) (geom.Point, bool)) []int {
	buf = buf[:0]
	lastD, last := -1.0, -1
	for len(buf) < r {
		i, d := nextNearest(n, key, at, lastD, last)
		if i < 0 {
			break
		}
		buf = append(buf, i)
		lastD, last = d, i
	}
	return buf
}

// nextNearest returns the candidate ranked immediately after (lastD, last)
// in the order (squared distance to key, index), with its distance: one
// pass, no state beyond the previous pick. A NaN distance ranks nowhere.
func nextNearest(n int, key geom.Point, at func(i int) (geom.Point, bool), lastD float64, last int) (int, float64) {
	best, bestD := -1, 0.0
	for i := 0; i < n; i++ {
		p, ok := at(i)
		if !ok {
			continue
		}
		d := geom.Dist2(p, key)
		if !(d > lastD || (d == lastD && i > last)) {
			continue // ranked already
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
