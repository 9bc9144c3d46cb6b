package delaunay

import (
	"slices"

	"voronet/internal/geom"
)

// Remove deletes site v and retriangulates the hole so the structure stays
// exactly Delaunay. This is the substrate of the paper's
// RemoveVoronoiRegion (§4.2.2). Outside the rebuilds (a change of
// dimension, the degenerate fallback) it allocates nothing once its scratch
// has grown to the largest hole seen.
func (t *Triangulation) Remove(v VertexID) error {
	defer t.flush()
	if v == Infinite || !t.Alive(v) {
		return ErrNotFound
	}
	if t.dim < 2 {
		t.removeLowDim(v)
		return nil
	}
	t.collectStar(v)
	switch {
	case t.nFinite-1 <= 2 || t.lowersDimension():
		// The rest is collinear: the dimension drops.
	case t.fillHole(v):
		for _, f := range t.starF {
			t.freeFace(f)
		}
		t.nFinite--
		t.freeVertex(v)
		return nil
	default:
		// Defensive fallback for a hole the ears could not fill: rebuild
		// from scratch, which is always correct.
		t.rebuilds++
	}
	t.nFinite--
	t.freeVertex(v)
	t.rebuildAll()
	return nil
}

// collectStar fills starF with the faces around v in counterclockwise
// order and starV with the link vertices (starV[i] is the vertex such that
// starF[i] = (v, starV[i], starV[i+1]) cyclically).
func (t *Triangulation) collectStar(v VertexID) {
	t.starF = t.starF[:0]
	t.starV = t.starV[:0]
	start := t.verts[v].face
	f := start
	for {
		i := t.vertIndex(f, v)
		t.starF = append(t.starF, f)
		t.starV = append(t.starV, t.faces[f].v[(i+1)%3])
		f = t.ccwNextAround(v, f)
		if f == start {
			return
		}
	}
}

// lowersDimension reports whether removing the centre of the star leaves a
// collinear site set: the centre is a hull site, and its finite link chain
// is collinear and holds every other site.
func (t *Triangulation) lowersDimension() bool {
	k := len(t.starV)
	infPos := slices.Index(t.starV, Infinite)
	return infPos >= 0 && k-1 == t.nFinite-1 && t.chainCollinear(infPos)
}

// chainCollinear reports whether the finite link chain (the link minus the
// infinite vertex at infPos) is entirely collinear.
func (t *Triangulation) chainCollinear(infPos int) bool {
	k := len(t.starV)
	at := func(j int) geom.Point { return t.verts[t.starV[(infPos+j)%k]].p }
	for j := 3; j < k; j++ {
		if geom.Orient2D(at(1), at(2), at(j)) != 0 {
			return false
		}
	}
	return true
}

// fillHole retriangulates the hole that removing v leaves, over v's whole
// link, infinite vertex included. It cuts one ear (a, b, c) of consecutive
// corners at a time, each a face of the triangulation without v (isEar),
// so no flip follows and a hull site needs no code of its own. It reports
// success; on failure the faces are half rewired and the caller rebuilds.
func (t *Triangulation) fillHole(v VertexID) bool {
	rm := &t.rm
	k := len(t.starV)
	rm.owner, rm.next, rm.prev = rm.owner[:0], rm.next[:0], rm.prev[:0]
	for i, f := range t.starF {
		g := t.faces[f].n[t.vertIndex(f, v)]
		rm.owner = append(rm.owner, faceEdge{g, t.neighborIndex(g, f)})
		rm.next = append(rm.next, (i+1)%k)
		rm.prev = append(rm.prev, (i+k-1)%k)
	}
	poly, next, prev, owner := t.starV, rm.next, rm.prev, rm.owner
	b := 0
	for left := k; ; left-- {
		for tries := 0; !t.isEar(prev[b], b, next[b]); b = next[b] {
			if tries++; tries == left {
				return false
			}
		}
		// Face (A, B, C): edge (A, B) is opposite C, index 2; (B, C) is
		// opposite A, index 0; the diagonal (C, A), index 1, becomes the
		// boundary edge of corner a, or is c's when the hole closes.
		a, c := prev[b], next[b]
		f := t.newFace(poly[a], poly[b], poly[c])
		t.link(f, 2, owner[a].f, owner[a].k)
		t.link(f, 0, owner[b].f, owner[b].k)
		if left == 3 {
			t.link(f, 1, owner[c].f, owner[c].k)
			t.lastFace = f
			return true
		}
		next[a], prev[c], owner[a] = c, a, faceEdge{f, 1}
		b = a
	}
}

// isEar reports whether the consecutive hole corners (a, b, c) make a face
// of the triangulation without the removed site: a finite ear turns
// strictly left, and no other corner conflicts with it under conflicts —
// for an infinite ear, a corner on its open hull edge counts as a conflict
// too, since that edge would pass over it. Such an ear is Delaunay among
// the remaining corners, and the sites beyond the link were outside the
// removed star's circles, so they are outside the ear's too.
func (t *Triangulation) isEar(a, b, c int) bool {
	poly, next := t.starV, t.rm.next
	pa, pb, pc := t.verts[poly[a]].p, t.verts[poly[b]].p, t.verts[poly[c]].p
	inf, p, q := -1, pa, pb // p, q: an infinite ear's hull edge, in face order
	switch Infinite {
	case poly[a]:
		inf, p, q = 0, pb, pc
	case poly[b]:
		inf, p, q = 1, pc, pa
	case poly[c]:
		inf = 2
	}
	if inf < 0 && geom.Orient2D(pa, pb, pc) <= 0 {
		return false
	}
	for w := next[c]; w != a; w = next[w] {
		if poly[w] == Infinite {
			continue
		}
		pw := t.verts[poly[w]].p
		if conflicts(pa, pb, pc, inf, pw) ||
			inf >= 0 && geom.Orient2D(p, q, pw) == 0 && lexLess(p, pw) == lexLess(pw, q) {
			return false
		}
	}
	return true
}

// removeLowDim removes a site while in degenerate (dim < 2) mode.
func (t *Triangulation) removeLowDim(v VertexID) {
	idx := t.lineIndex(v)
	t.line = append(t.line[:idx], t.line[idx+1:]...)
	t.freeVertex(v)
	t.nFinite--
	switch {
	case len(t.line) == 0:
		t.dim = -1
	case len(t.line) == 1:
		t.dim = 0
	default:
		t.dim = 1
	}
}

// rebuildAll reconstructs the whole structure from the live sites. Always
// correct; used for dimension transitions and as the degenerate-removal
// fallback.
func (t *Triangulation) rebuildAll() {
	var sites []VertexID
	for id := 1; id < len(t.verts); id++ {
		if t.verts[id].alive {
			sites = append(sites, VertexID(id))
			t.setFace(VertexID(id), NoFace)
		}
	}
	t.setFace(Infinite, NoFace)
	t.faces = t.faces[:0]
	t.freeFaces = t.freeFaces[:0]
	t.line = t.line[:0]
	t.dim = -1
	t.lastFace = NoFace
	t.nFiniteFaces = 0

	hint := NoVertex
	for _, v := range sites {
		if err := t.place(v, hint); err != nil {
			// Duplicates cannot occur among formerly co-live sites.
			panic("delaunay: rebuild failed: " + err.Error())
		}
		hint = v
	}
}
