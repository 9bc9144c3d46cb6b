package delaunay

import "voronet/internal/geom"

// Insert adds a site at p and returns its vertex ID. hint (a live vertex
// near p, or NoVertex) accelerates point location; VoroNet passes the
// object reached by greedy routing, which makes insertion O(1) expected.
//
// Inserting at the exact position of an existing site returns that site's
// ID and a *duplicateError (matching errors.Is(err, ErrDuplicate)).
func (t *Triangulation) Insert(p geom.Point, hint VertexID) (VertexID, error) {
	v, err := t.insert(p, hint)
	t.flush()
	return v, err
}

// insert is Insert without the flush of the neighbour slots.
func (t *Triangulation) insert(p geom.Point, hint VertexID) (VertexID, error) {
	v := t.newVertex(p)
	if err := t.place(v, hint); err != nil {
		t.freeVertex(v)
		if de, ok := err.(*duplicateError); ok {
			return de.Existing, err
		}
		return NoVertex, err
	}
	t.nFinite++
	return v, nil
}

// place wires an allocated vertex record into the structure, dispatching on
// the current dimension. It does not touch nFinite.
func (t *Triangulation) place(v VertexID, hint VertexID) error {
	if t.dim < 2 {
		return t.placeLowDim(v)
	}
	return t.insertSite(v, hint)
}

// insertSite wires vertex v into the dim-2 structure via Bowyer–Watson:
// locate, walk the conflict cavity (conflictRegion, the walk CavityRO
// prices insertions with), carve it and star the boundary from v.
func (t *Triangulation) insertSite(v VertexID, hint VertexID) error {
	p := t.verts[v].p
	loc := t.locate(p, hint)
	if loc.Kind == LocVertex {
		return &duplicateError{Existing: loc.Vertex}
	}
	c := &t.cav
	t.conflictRegion(p, loc, c)

	// Stitch: one new face (a, b, v) per boundary edge, fanned around v.
	// The boundary comes in cycle order, so each face meets the next one's.
	for i := range c.edges {
		e := &c.edges[i]
		e.newFace = t.newFace(e.a, e.b, v)
		t.link(e.newFace, 2, e.out, e.outIdx)
	}
	for i := range c.edges {
		e, next := &c.edges[i], &c.edges[(i+1)%len(c.edges)]
		if e.b != next.a {
			panic("delaunay: cavity boundary is not a cycle")
		}
		// e.newFace = (a, b, v): edge (b, v) is opposite index 0.
		// next.newFace = (b, c, v): edge (v, b) is opposite index 1.
		t.link(e.newFace, 0, next.newFace, 1)
	}

	for _, f := range c.faces {
		t.freeFace(f)
	}
	t.setFace(v, c.edges[0].newFace)
	t.lastFace = c.edges[0].newFace
	return nil
}

// placeLowDim handles insertion while the site set has affine dimension
// below 2 (empty, single site, or all collinear).
func (t *Triangulation) placeLowDim(v VertexID) error {
	p := t.verts[v].p
	for _, u := range t.line {
		if t.verts[u].p == p {
			return &duplicateError{Existing: u}
		}
	}
	if len(t.line) >= 2 {
		a := t.verts[t.line[0]].p
		b := t.verts[t.line[len(t.line)-1]].p
		if geom.Orient2D(a, b, p) != 0 {
			t.upgradeToDim2(v)
			return nil
		}
	}
	// Insert into the lexicographically sorted chain. Along a common line
	// lexicographic order is the linear order, with no arithmetic at all.
	pos := len(t.line)
	for i, u := range t.line {
		if lexLess(p, t.verts[u].p) {
			pos = i
			break
		}
	}
	t.line = append(t.line, 0)
	copy(t.line[pos+1:], t.line[pos:])
	t.line[pos] = v
	if len(t.line) == 1 {
		t.dim = 0
	} else {
		t.dim = 1
	}
	return nil
}

// upgradeToDim2 builds the 2-D structure from the collinear chain plus the
// first off-line vertex w.
func (t *Triangulation) upgradeToDim2(w VertexID) {
	chain := append([]VertexID(nil), t.line...)
	t.line = t.line[:0]
	t.dim = 2

	// Bootstrap with the chain's two extreme sites and w, then insert the
	// interior chain sites; they land on edge (a, b) or collinear outside
	// it, both handled by the generic insertion path.
	a, b := chain[0], chain[len(chain)-1]
	t.bootstrapFaces(a, b, w)
	for _, u := range chain[1 : len(chain)-1] {
		if err := t.insertSite(u, a); err != nil {
			panic("delaunay: dimension upgrade re-insertion failed: " + err.Error())
		}
	}
}

// bootstrapFaces creates the four faces (one finite, three infinite) of the
// first non-degenerate triple.
func (t *Triangulation) bootstrapFaces(a, b, c VertexID) {
	if geom.Orient2D(t.verts[a].p, t.verts[b].p, t.verts[c].p) < 0 {
		b, c = c, b
	}
	f0 := t.newFace(a, b, c)
	// Infinite faces: (u, v, Infinite) with the hull interior to the right
	// of u -> v, i.e. the reversed finite edges of f0.
	f1 := t.newFace(b, a, Infinite)
	f2 := t.newFace(c, b, Infinite)
	f3 := t.newFace(a, c, Infinite)
	// f0 edges: opp a = (b,c) <-> f2; opp b = (c,a) <-> f3; opp c = (a,b) <-> f1.
	t.link(f0, 0, f2, 2)
	t.link(f0, 1, f3, 2)
	t.link(f0, 2, f1, 2)
	// Around the infinite vertex:
	// f1=(b,a,inf) edge (a,inf) [opp b, idx 0] <-> f3=(a,c,inf) edge (inf,a) [opp c, idx 1].
	t.link(f1, 0, f3, 1)
	// f1 edge (inf,b) [opp a, idx 1] <-> f2=(c,b,inf) edge (b,inf) [opp c, idx 0].
	t.link(f1, 1, f2, 0)
	// f2 edge (inf,c) [opp b, idx 1] <-> f3 edge (c,inf) [opp a, idx 0].
	t.link(f2, 1, f3, 0)
	t.lastFace = f0
}
