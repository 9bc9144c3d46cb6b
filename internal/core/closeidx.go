package core

import (
	"fmt"
	"math"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// closeIndex is a uniform grid over the unit square, used to answer
// close-neighbour queries (cn(o) = objects within dmin of o) in O(1)
// expected time. It is the simulator's equivalent of the per-object cn sets
// the distributed protocol maintains via Lemma 1; the two are
// property-tested to agree.
//
// The grid probe runs on about half of all greedy hops, so the index is
// two dense arrays and nothing else: head holds the first vertex of each
// cell's chain and next, indexed by vertex, the following one (0 ends a
// chain and marks an empty cell, vertex 0 being the infinite vertex).
// Positions are read from the triangulation, whose vertices BulkLoad lays
// out along the Hilbert curve, so the vertices of one 3×3 block are
// neighbours in memory too.
//
// A coordinate outside [0, 1) — an exterior long-link target whose fictive
// object is charged its close neighbours, objects placed on or beyond the
// border — clamps into the border cells. Clamping is monotone and 1-Lipschitz on cell indices, so two
// points within one cell width of each other still have keys at most one
// apart on each axis, and a 3×3 block around the clamped key covers radius
// `cell` exactly as it does without the clamp.
type closeIndex struct {
	tr   *delaunay.Triangulation
	r2   float64 // the squared radius the index answers; r <= cell
	cell float64 // cell width
	side int     // cells per axis
	head []int32 // side×side, row-major in x
	next []int32 // by vertex
}

// newCloseIndex returns an empty index answering radius dmin over tr's
// sites. The cell width is dmin, but never below 1/(2·√nmax): a tiny
// Config.DMin cannot allocate more than ~4·nmax heads. At the default dmin
// (1/dmin = √π·√nmax ≈ 1.77·√nmax) the cell width is dmin itself.
func newCloseIndex(tr *delaunay.Triangulation, dmin float64, nmax int) *closeIndex {
	cell := math.Max(dmin, 1/(2*math.Sqrt(float64(nmax))))
	side := int(math.Ceil(1 / cell))
	return &closeIndex{tr: tr, r2: dmin * dmin, cell: cell, side: side, head: make([]int32, side*side)}
}

// key returns p's clamped cell coordinates.
func (c *closeIndex) key(p geom.Point) (int, int) {
	return c.clamp(p.X), c.clamp(p.Y)
}

func (c *closeIndex) clamp(x float64) int {
	k := x / c.cell
	if !(k > 0) {
		return 0
	}
	if k >= float64(c.side) {
		return c.side - 1
	}
	return int(k)
}

// add links the live vertex v into its cell's chain.
func (c *closeIndex) add(v delaunay.VertexID) {
	for int(v) >= len(c.next) {
		c.next = append(c.next, 0)
	}
	kx, ky := c.key(c.tr.Point(v))
	h := &c.head[kx*c.side+ky]
	c.next[v] = *h
	*h = int32(v)
}

// remove unlinks v, whose site was at p, from its cell's chain.
func (c *closeIndex) remove(v delaunay.VertexID, p geom.Point) {
	kx, ky := c.key(p)
	at := &c.head[kx*c.side+ky]
	for *at != int32(v) {
		at = &c.next[*at]
	}
	*at = c.next[v]
	c.next[v] = 0
}

// check verifies that the chains hold exactly the live vertices, n of
// them, each on the chain of its own cell and on no other.
func (c *closeIndex) check(n int) error {
	seen := 0
	for cell, h := range c.head {
		for v := h; v != 0; v = c.next[v] {
			if seen++; seen > n {
				return fmt.Errorf("close-neighbour index chains more than the %d live vertices", n)
			}
			if !c.tr.Alive(delaunay.VertexID(v)) {
				return fmt.Errorf("close-neighbour index chains dead vertex %d", v)
			}
			if kx, ky := c.key(c.tr.Point(delaunay.VertexID(v))); kx*c.side+ky != cell {
				return fmt.Errorf("vertex %d is chained in cell %d, its site is in cell %d", v, cell, kx*c.side+ky)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("close-neighbour index chains %d of %d live vertices", seen, n)
	}
	return nil
}

// within appends to buf[:0] the vertices within the index's radius of p,
// excluding exclude. The radius is the one the index was built for, which
// the cell width is never below, so a 3×3 cell neighbourhood suffices.
// This is the one copy of the grid scan.
func (c *closeIndex) within(p geom.Point, exclude delaunay.VertexID, buf []delaunay.VertexID) []delaunay.VertexID {
	buf = buf[:0]
	kx, ky := c.key(p)
	for x := max(kx-1, 0); x <= min(kx+1, c.side-1); x++ {
		for y := max(ky-1, 0); y <= min(ky+1, c.side-1); y++ {
			for v := c.head[x*c.side+y]; v != 0; v = c.next[v] {
				if delaunay.VertexID(v) != exclude && geom.Dist2(p, c.tr.Point(delaunay.VertexID(v))) <= c.r2 {
					buf = append(buf, delaunay.VertexID(v))
				}
			}
		}
	}
	return buf
}

// maxNearRings caps near's search, so that a miss reads at most
// (2·16+1)² = 1 089 heads. An overlay that needs more rings to expect
// eight vertices holds fewer than 8/1 089 of a vertex per cell (fewer than
// 7 000 vertices at NMax 300k), and a walk across so few sites from the
// caller's own start is short anyway.
const maxNearRings = 16

// near returns a live vertex in p's clamped cell or, when that cell is
// empty, in the nearest non-empty ring of cells around it: the start for
// a walk towards p. The ring limit comes from the grid's occupancy, n
// live vertices over side² cells: enough rings, (2r+1)² cells, to expect
// about eight vertices, and never more than maxNearRings. Past it near
// returns NoVertex.
func (c *closeIndex) near(p geom.Point, n int) delaunay.VertexID {
	if n == 0 {
		return delaunay.NoVertex
	}
	limit := min(int(math.Ceil((math.Sqrt(8/float64(n))*float64(c.side)-1)/2)), maxNearRings)
	kx, ky := c.key(p)
	for r := 0; r <= limit; r++ {
		for x := max(kx-r, 0); x <= min(kx+r, c.side-1); x++ {
			// The ring's two edge columns are read whole, the columns
			// between them only at their top and bottom cells.
			step := 2 * r
			if x == kx-r || x == kx+r {
				step = 1
			}
			for y := ky - r; y <= ky+r; y += step {
				if y >= 0 && y < c.side {
					if v := c.head[x*c.side+y]; v != 0 {
						return delaunay.VertexID(v)
					}
				}
			}
		}
	}
	return delaunay.NoVertex
}
