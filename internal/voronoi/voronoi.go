// Package voronoi provides a Voronoi-diagram view over a Delaunay
// triangulation: cell polygons, point-in-region tests and the paper's
// DistanceToRegion primitive (§4.2.3), which greedy routing evaluates at
// every step of Algorithm 5.
//
// Cells are computed on demand by halfplane intersection against the
// triangulation's neighbour sets; unbounded cells of hull sites are clipped
// against a large bounding box. The box is far larger than the VoroNet
// attribute domain (the unit square plus the √2-radius band reachable by
// long-range targets), so clipping never changes any distance the protocol
// evaluates.
package voronoi

import (
	"math"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// defaultBound is the half-extent of the clipping box, centred on (0.5,
// 0.5). Coordinates VoroNet manipulates stay within [-√2, 1+√2].
const defaultBound = 8.0

// Diagram is a Voronoi view over a triangulation. It holds scratch buffers
// and is not safe for concurrent use; create one per goroutine.
type Diagram struct {
	tr   *delaunay.Triangulation
	lo   float64
	hi   float64
	bufA []geom.Point
	bufB []geom.Point
	nbuf []delaunay.VertexID
}

// New returns a Voronoi view of tr with the default clipping box.
func New(tr *delaunay.Triangulation) *Diagram {
	return &Diagram{tr: tr, lo: 0.5 - defaultBound, hi: 0.5 + defaultBound}
}

// cell returns the Voronoi region of site v as a convex counterclockwise
// polygon, clipped to the diagram's bounding box. The slice is reused by
// subsequent calls; copy it if it must persist.
//
// With fewer than two sites (or in degenerate collinear mode) cells are
// still well defined as halfplane intersections of the site's chain
// neighbours.
func (d *Diagram) cell(v delaunay.VertexID) []geom.Point {
	o := d.tr.Point(v)
	// Start from the bounding box...
	d.bufA = append(d.bufA[:0],
		geom.Pt(d.lo, d.lo), geom.Pt(d.hi, d.lo), geom.Pt(d.hi, d.hi), geom.Pt(d.lo, d.hi))
	poly := d.bufA
	out := d.bufB[:0]
	// ...and clip with the bisector halfplane of every Voronoi neighbour.
	d.nbuf = d.tr.Neighbors(v, d.nbuf)
	for _, u := range d.nbuf {
		q := d.tr.Point(u)
		// Halfplane closer to o than to u: n·x <= c with n = q-o,
		// c = n·midpoint.
		n := q.Sub(o)
		m := o.Add(q).Scale(0.5)
		c := n.Dot(m)
		out = clipHalfplane(poly, n, c, out)
		poly, out = out, poly[:0]
		if len(poly) == 0 {
			break
		}
	}
	d.bufA, d.bufB = poly, out
	return poly
}

// clipHalfplane clips convex ccw polygon poly against {x : n·x <= c},
// appending the result to dst (Sutherland–Hodgman).
func clipHalfplane(poly []geom.Point, n geom.Point, c float64, dst []geom.Point) []geom.Point {
	k := len(poly)
	for i := 0; i < k; i++ {
		cur := poly[i]
		nxt := poly[(i+1)%k]
		curIn := n.Dot(cur) <= c
		nxtIn := n.Dot(nxt) <= c
		if curIn {
			dst = append(dst, cur)
		}
		if curIn != nxtIn {
			// Intersection of segment with the line n·x = c.
			den := n.Dot(nxt.Sub(cur))
			if den != 0 {
				t := (c - n.Dot(cur)) / den
				dst = append(dst, cur.Add(nxt.Sub(cur).Scale(t)))
			}
		}
	}
	return dst
}

// contains reports whether p lies in the (closed) Voronoi region of v,
// i.e. whether v is a nearest site to p. The test is local: v is nearest
// iff it is at least as close to p as every one of its Voronoi neighbours.
func (d *Diagram) contains(v delaunay.VertexID, p geom.Point) bool {
	o := d.tr.Point(v)
	dv := geom.Dist2(p, o)
	d.nbuf = d.tr.Neighbors(v, d.nbuf)
	for _, u := range d.nbuf {
		if geom.Dist2(p, d.tr.Point(u)) < dv {
			return false
		}
	}
	return true
}

// DistanceToRegionBeyond reports whether dist(p, R(v)) provably exceeds
// thresh: BeyondBisectors over v's own neighbour walk.
func (d *Diagram) DistanceToRegionBeyond(v delaunay.VertexID, p geom.Point, thresh float64) bool {
	d.nbuf = d.tr.Neighbors(v, d.nbuf)
	return d.BeyondBisectors(v, d.nbuf, p, thresh)
}

// BeyondBisectors reports whether dist(p, R(v)) provably exceeds thresh,
// given nbrs = the Voronoi neighbours of v, using the maximum bisector
// violation as a lower bound: R(v) is contained in every halfplane
// {x : |x−v| ≤ |x−u|}, so p's distance to the region is at least its
// distance past any single bisector. One pass over the neighbours, no cell
// construction — this is what lets greedy routing evaluate Algorithm 5's
// stop condition in O(deg) per hop on the neighbour list the hop's scan
// reads anyway, falling back to the exact DistanceToRegion only when the
// bound cannot decide (i.e. near the stop). A false result means "not
// provable", not "within thresh".
func (d *Diagram) BeyondBisectors(v delaunay.VertexID, nbrs []delaunay.VertexID, p geom.Point, thresh float64) bool {
	o := d.tr.Point(v)
	for _, u := range nbrs {
		q := d.tr.Point(u)
		n := q.Sub(o)
		nn := n.Dot(n)
		if nn == 0 {
			continue
		}
		// Signed distance of p past the bisector of (v, u):
		// s = (n·p − n·m) / |n| with m the midpoint.
		m := o.Add(q).Scale(0.5)
		s := n.Dot(p.Sub(m))
		if s > 0 && s*s > thresh*thresh*nn {
			return true
		}
	}
	return false
}

// DistanceToRegion returns the point of R(v) closest to p and its distance.
// This is the paper's DistanceToRegion primitive executed at object v for a
// routing target p: if p lies in R(v) the result is p itself with distance
// zero, otherwise the nearest boundary point of the cell.
func (d *Diagram) DistanceToRegion(v delaunay.VertexID, p geom.Point) (geom.Point, float64) {
	if d.contains(v, p) {
		return p, 0
	}
	poly := d.cell(v)
	if len(poly) == 0 {
		// Numerically impossible for a live site (its cell contains it);
		// fall back to the site position.
		o := d.tr.Point(v)
		return o, geom.Dist(p, o)
	}
	best := poly[0]
	bestD := math.Inf(1)
	for i := range poly {
		a := poly[i]
		b := poly[(i+1)%len(poly)]
		q := geom.ClosestPointOnSegment(p, a, b)
		if dd := geom.Dist2(p, q); dd < bestD {
			best, bestD = q, dd
		}
	}
	return best, math.Sqrt(bestD)
}
