// Package geom provides the 2-D geometric primitives and robust predicates
// that the VoroNet substrate is built on.
//
// The two predicates that decide the topology of a Delaunay triangulation —
// Orient2D and InCircle — are evaluated adaptively: a fast floating-point
// path guarded by a forward error bound (Shewchuk's "A" filter), falling
// back to exact floating-point expansion arithmetic when the filter cannot
// certify the sign. This makes the triangulation, and therefore the VoroNet
// overlay state derived from it, immune to the calculation degeneracy the
// paper addresses via Sugihara–Iri [13]: duplicated, collinear and
// co-circular sites never corrupt the structure.
package geom

import "math"

// Point is a site in the 2-D attribute space. VoroNet positions live in the
// unit square [0,1]×[0,1], but nothing in this package assumes that: long
// range targets (Choose-LRT) may land outside it.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// minCoord and maxCoord bound the position domain of a site: each
// coordinate is 0 or has a magnitude in [minCoord, maxCoord]. On that
// domain no product Orient2D or InCircle forms overflows or underflows, so
// both predicates are exact; far outside it they are not, and nodes that
// disagree on one site's cell trade view updates without end.
const (
	minCoord = 0x1p-64
	maxCoord = 0x1p32
)

// InDomain reports whether p lies in the position domain (NaN and ±Inf
// do not).
func InDomain(p Point) bool { return inDomain(p.X) && inDomain(p.Y) }

func inDomain(v float64) bool {
	a := math.Abs(v)
	return a == 0 || a >= minCoord && a <= maxCoord
}

// Add returns p + q (componentwise).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q (componentwise).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. Prefer it
// for comparisons: it is exact-enough, monotone in Dist and avoids the
// square root.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// InUnitSquare reports whether p lies in the closed unit square, the
// attribute domain used throughout the paper.
func (p Point) InUnitSquare() bool {
	return p.X >= 0 && p.X <= 1 && p.Y >= 0 && p.Y <= 1
}

// ClampUnitSquare returns p clamped to the closed unit square.
func (p Point) ClampUnitSquare() Point {
	return Point{math.Min(1, math.Max(0, p.X)), math.Min(1, math.Max(0, p.Y))}
}

// ClosestPointOnSegment returns the point of segment [a,b] closest to p.
func ClosestPointOnSegment(p, a, b Point) Point {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return a
	}
	t := p.Sub(a).Dot(ab) / den
	if t <= 0 {
		return a
	}
	if t >= 1 {
		return b
	}
	return a.Add(ab.Scale(t))
}

// ConvexPolygonIntersectsSegment reports whether a convex counterclockwise
// polygon and segment [a,b] intersect, via separating-axis tests over the
// polygon edge normals and the segment normal.
func ConvexPolygonIntersectsSegment(poly []Point, a, b Point) bool {
	if len(poly) < 3 {
		return false
	}
	test := func(ax Point) bool {
		minP, maxP := math.Inf(1), math.Inf(-1)
		for _, p := range poly {
			v := ax.Dot(p)
			minP = math.Min(minP, v)
			maxP = math.Max(maxP, v)
		}
		sa, sb := ax.Dot(a), ax.Dot(b)
		minS, maxS := math.Min(sa, sb), math.Max(sa, sb)
		return maxP < minS || maxS < minP
	}
	for i := range poly {
		e := poly[(i+1)%len(poly)].Sub(poly[i])
		if test(Pt(-e.Y, e.X)) {
			return false
		}
	}
	d := b.Sub(a)
	return !test(Pt(-d.Y, d.X))
}
