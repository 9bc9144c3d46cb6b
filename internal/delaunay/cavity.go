package delaunay

import "voronet/internal/geom"

// Cavity is the Bowyer–Watson conflict region of a point p: the faces whose
// circumcircle strictly contains p (for an infinite face, whose hull edge p
// strictly sees), grown from the face that holds p. Inserting a site at p
// deletes exactly these faces and stars their boundary from the new site,
// so the boundary names the site's Voronoi neighbours before the site
// exists.
//
// A Cavity is its owner's scratch, reused from walk to walk; the zero value
// is ready. The triangulation keeps one for its own insertions, and a
// caller that prices an insertion without making it (VoroNet's fictive
// objects) passes its own to CavityRO.
type Cavity struct {
	faces []FaceID
	// edges is the boundary as directed edges with the cavity on the left,
	// in counterclockwise order: edges[i].b == edges[i+1].a, cyclically. The
	// new site's star is the faces (a, b, p), one per edge.
	edges []bEdge
	stack []faceEdge
	deg   int // finite vertices on the boundary: the new site's degree
}

// faceEdge is edge k of face f (the edge opposite f's vertex k).
type faceEdge struct {
	f FaceID
	k int
}

// Degree returns the number of finite Delaunay neighbours a site inserted
// at the probed point would have: Neighbors' length right after Insert.
func (c *Cavity) Degree() int { return c.deg }

// CavityRO fills c with what inserting a site at p would carve, locating p
// from hint's face as LocateRO does, and reports whether p is free: false
// when a live site already occupies p, where Insert would refuse. It writes
// nothing the triangulation shares, so goroutines with a Cavity each may
// call it concurrently while no insertion or removal runs.
//
// Below dimension 2 there are no faces: c then holds only the degree,
// counted over the collinear chain. A site on the chain's line would sit
// between its chain neighbours; a site off it would be joined to every
// site of the chain.
func (t *Triangulation) CavityRO(p geom.Point, hint VertexID, c *Cavity) bool {
	if t.dim < 2 {
		c.faces, c.edges = c.faces[:0], c.edges[:0]
		return t.chainDegree(p, c)
	}
	loc := t.LocateRO(p, hint)
	if loc.Kind == LocVertex {
		return false
	}
	t.conflictRegion(p, loc, c)
	return true
}

// chainDegree is CavityRO below dimension 2.
func (t *Triangulation) chainDegree(p geom.Point, c *Cavity) bool {
	before, after := false, false
	for _, u := range t.line {
		q := t.verts[u].p
		if q == p {
			return false
		}
		before = before || lexLess(q, p)
		after = after || lexLess(p, q)
	}
	switch {
	case len(t.line) >= 2 && geom.Orient2D(t.verts[t.line[0]].p, t.verts[t.line[len(t.line)-1]].p, p) != 0:
		c.deg = len(t.line)
	default:
		c.deg = 0
		if before {
			c.deg++
		}
		if after {
			c.deg++
		}
	}
	return true
}

// conflictRegion grows the cavity of p from loc, which is not a vertex.
// The cavity has no vertex inside it — a site with every incident face in
// conflict would lie nearer p than itself — so its faces and their shared
// edges form a tree. A depth-first walk that never leaves a face by the edge
// it entered through therefore meets each face once and needs no mark; and
// taking each face's edges in counterclockwise order from that entry edge
// traces the boundary counterclockwise. A point on an edge seeds the walk
// with both faces of the edge: the one across may be an infinite face that
// p, on its hull edge, does not strictly see.
func (t *Triangulation) conflictRegion(p geom.Point, loc Location, c *Cavity) {
	partner := NoFace
	if loc.Kind == LocEdge {
		partner = t.faces[loc.Face].n[loc.Edge]
	}
	c.faces, c.edges = append(c.faces[:0], loc.Face), c.edges[:0]
	c.stack = append(c.stack[:0], faceEdge{loc.Face, 2}, faceEdge{loc.Face, 1}, faceEdge{loc.Face, 0})
	for len(c.stack) > 0 {
		e := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		fc := &t.faces[e.f]
		g := fc.n[e.k]
		j := t.neighborIndex(g, e.f)
		if g == partner || t.inConflict(g, p) {
			if len(c.faces) == len(t.faces) {
				panic("delaunay: conflict region is not a tree")
			}
			c.faces = append(c.faces, g)
			c.stack = append(c.stack, faceEdge{g, (j + 2) % 3}, faceEdge{g, (j + 1) % 3})
			continue
		}
		c.edges = append(c.edges, bEdge{a: fc.v[(e.k+1)%3], b: fc.v[(e.k+2)%3], out: g, outIdx: j})
	}
	c.deg = 0
	for i := range c.edges {
		if c.edges[i].a != Infinite {
			c.deg++
		}
	}
}

// DegreeWith returns the degree that the site z, whose cavity c holds,
// would have once z and then q were inserted, q being free and distinct
// from z. z's star is the faces (a, b, z) over c's boundary; inserting q
// deletes each edge of the star whose two faces both conflict with q, and
// joins q to z when any face of the star does. c must come from a
// triangulation of dimension 2.
func (t *Triangulation) DegreeWith(c *Cavity, z, q geom.Point) int {
	k := len(c.edges)
	if k == 0 {
		panic("delaunay: DegreeWith needs a cavity of dimension 2")
	}
	star := func(i int) bool {
		e := &c.edges[i]
		inf := -1
		switch {
		case e.a == Infinite:
			inf = 0
		case e.b == Infinite:
			inf = 1
		}
		return conflicts(t.verts[e.a].p, t.verts[e.b].p, z, inf, q)
	}
	first := star(0)
	cur, any, n := first, first, 0
	for i := range c.edges {
		// The star's edge (z, edges[i].b) lies between faces i and i+1.
		next := first
		if i+1 < k {
			next = star(i + 1)
		}
		if c.edges[i].b != Infinite && !(cur && next) {
			n++
		}
		any = any || next
		cur = next
	}
	if any {
		n++
	}
	return n
}

// conflicts is the one Bowyer–Watson conflict rule, for the
// counterclockwise triangle (a, b, c) whose vertex inf is the infinite one
// (-1 for a finite triangle): p strictly inside the circumcircle, or
// strictly on the unbounded side of the hull edge.
func conflicts(a, b, c geom.Point, inf int, p geom.Point) bool {
	switch inf {
	case 0:
		return geom.Orient2D(b, c, p) > 0
	case 1:
		return geom.Orient2D(c, a, p) > 0
	case 2:
		return geom.Orient2D(a, b, p) > 0
	}
	return geom.InCircle(a, b, c, p) > 0
}

// inConflict applies conflicts to face g.
func (t *Triangulation) inConflict(g FaceID, p geom.Point) bool {
	gc := &t.faces[g]
	inf := -1
	for k := 0; k < 3; k++ {
		if gc.v[k] == Infinite {
			inf = k
		}
	}
	return conflicts(t.verts[gc.v[0]].p, t.verts[gc.v[1]].p, t.verts[gc.v[2]].p, inf, p)
}
