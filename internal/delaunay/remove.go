package delaunay

import "voronet/internal/geom"

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
	if t.nFinite-1 <= 2 {
		t.nFinite--
		t.freeVertex(v)
		t.rebuildAll()
		return nil
	}

	t.collectStar(v)
	k := len(t.starV)

	// Position of the infinite vertex in the link, if any (hull site).
	infPos := -1
	for i, u := range t.starV {
		if u == Infinite {
			infPos = i
			break
		}
	}

	if infPos >= 0 {
		// Downgrade check: if the finite link chain is collinear and covers
		// every other site, the remainder is 1-dimensional.
		if k-1 == t.nFinite-1 && t.chainCollinear(infPos) {
			t.nFinite--
			t.freeVertex(v)
			t.rebuildAll()
			return nil
		}
	}

	ok := false
	if infPos < 0 {
		ok = t.removeInterior(v)
	} else {
		ok = t.removeHull(v, infPos)
	}
	if !ok {
		// Defensive fallback for degenerate link polygons the surgical path
		// declines to handle: rebuild from scratch, which is always correct.
		t.rebuilds++
		t.nFinite--
		t.freeVertex(v)
		t.rebuildAll()
		return nil
	}
	t.nFinite--
	t.freeVertex(v)
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

// outerOwner describes the face on the far side of a link edge.
type outerOwner struct {
	f   FaceID
	idx int
}

// starOuters fills rm.outs: for each star face i, the face across the link
// edge (starV[i], starV[i+1]) and the edge's index in that face.
func (t *Triangulation) starOuters(v VertexID) []outerOwner {
	outs := t.rm.outs[:0]
	for _, f := range t.starF {
		vi := t.vertIndex(f, v)
		g := t.faces[f].n[vi]
		outs = append(outs, outerOwner{f: g, idx: t.neighborIndex(g, f)})
	}
	t.rm.outs = outs
	return outs
}

// removeInterior handles removal of a site whose link is entirely finite.
// Returns false if the link polygon could not be ear-clipped (degenerate
// inputs; caller rebuilds).
func (t *Triangulation) removeInterior(v VertexID) bool {
	outs := t.starOuters(v)
	t.rm.created = t.rm.created[:0]
	if !t.fillPolygon(t.starV, outs) {
		return false
	}
	t.legalizeAmong(t.rm.created)
	for _, f := range t.starF {
		t.freeFace(f)
	}
	t.lastFace = t.rm.created[0]
	return true
}

// removeHull handles removal of a convex-hull site (infinite vertex in the
// link at infPos).
func (t *Triangulation) removeHull(v VertexID, infPos int) bool {
	outs := t.starOuters(v)
	k := len(t.starV)
	rm := &t.rm

	// Rotate so the link reads (Infinite, u_0, ..., u_m); chain[j] = u_j,
	// chainOut[j] = owner across (u_j, u_{j+1}), infOutPrev = owner across
	// (Infinite, u_0), infOutNext = owner across (u_m, Infinite).
	chain, chainOut := rm.chain[:0], rm.chainOut[:0]
	for j := 1; j < k; j++ {
		chain = append(chain, t.starV[(infPos+j)%k])
	}
	for j := 1; j < k-1; j++ {
		chainOut = append(chainOut, outs[(infPos+j)%k])
	}
	rm.chain, rm.chainOut = chain, chainOut
	infOutPrev := outs[infPos]         // across (Infinite, u_0)
	infOutNext := outs[(infPos+k-1)%k] // across (u_m, Infinite)

	// New hull chain H: Graham scan over the angularly ordered chain. A
	// chain vertex that bulges toward the removed site stays on the hull
	// (the hull retracts to it); one that dips away from it falls into a
	// pocket that must be filled with finite faces. Collinear vertices stay
	// on the hull. The link is counterclockwise around v, so "dips away"
	// means a strictly left turn along the chain.
	hull := rm.hull[:0] // indices into chain
	for i := range chain {
		for len(hull) >= 2 {
			a := t.verts[chain[hull[len(hull)-2]]].p
			b := t.verts[chain[hull[len(hull)-1]]].p
			c := t.verts[chain[i]].p
			if geom.Orient2D(a, b, c) > 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, i)
	}
	rm.hull = hull

	// Build the new infinite faces, one per consecutive hull pair, filling
	// pockets with finite faces. The stored finite edge of an infinite face
	// runs clockwise along the hull, which here is increasing chain order.
	infs := rm.infs[:0]
	rm.created = rm.created[:0]
	okAll := true
	for h := 0; h+1 < len(hull); h++ {
		p, q := hull[h], hull[h+1]
		infFace := t.newFace(chain[p], chain[q], Infinite)
		infs = append(infs, infFace)
		if q == p+1 {
			// Hull edge coincides with a link edge: link straight through.
			t.link(infFace, 2, chainOut[p].f, chainOut[p].idx)
			continue
		}
		// Pocket: ccw polygon (u_p, ..., u_q) closed by the chord
		// (u_q -> u_p) owned by the new infinite face.
		rm.pocket = append(append(rm.pocket[:0], chainOut[p:q]...), outerOwner{f: infFace, idx: 2})
		if !t.fillPolygon(chain[p:q+1], rm.pocket) {
			okAll = false
			break
		}
	}
	rm.infs = infs
	if !okAll {
		// Undo the partial construction and signal the rebuild fallback.
		for _, f := range infs {
			t.freeFace(f)
		}
		for _, f := range rm.created {
			t.freeFace(f)
		}
		return false
	}

	// Link the infinite faces to each other and to the surviving hull.
	// F_i = (H[i], H[i+1], inf): edge (H[i+1], inf) is opposite v[0] ->
	// index 0; edge (inf, H[i]) is opposite v[1] -> index 1.
	for h := 0; h+1 < len(infs); h++ {
		t.link(infs[h], 0, infs[h+1], 1)
	}
	first := infs[0] // shares (inf, u_0) with the face beyond u_0
	last := infs[len(infs)-1]
	t.link(first, 1, infOutPrev.f, infOutPrev.idx)
	t.link(last, 0, infOutNext.f, infOutNext.idx)

	t.legalizeAmong(rm.created)
	for _, f := range t.starF {
		t.freeFace(f)
	}
	t.lastFace = infs[0]
	return true
}

// fillPolygon triangulates the simple counterclockwise polygon poly (all
// finite vertices) by ear clipping, linking edge i (poly[i] -> poly[i+1])
// to owners[i], and appends the faces it creates to rm.created. It reports
// success; on failure it creates nothing.
func (t *Triangulation) fillPolygon(poly []VertexID, owners []outerOwner) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	rm := &t.rm
	next, prev, owner := rm.next[:0], rm.prev[:0], rm.owner[:0]
	for i := 0; i < n; i++ {
		next = append(next, (i+1)%n)
		prev = append(prev, (i+n-1)%n)
		owner = append(owner, owners[i])
	}
	rm.next, rm.prev, rm.owner = next, prev, owner
	base := len(rm.created)
	fail := func() bool {
		for _, f := range rm.created[base:] {
			t.freeFace(f)
		}
		rm.created = rm.created[:base]
		return false
	}

	remaining := n
	cur := 0
	for remaining > 3 {
		found := false
		// Scan for a valid ear starting from cur.
		i := cur
		for tries := 0; tries < remaining; tries++ {
			a, b, c := prev[i], i, next[i]
			if t.earOK(poly, next, a, b, c) {
				// Cut ear (a, b, c): face (poly[a], poly[b], poly[c]).
				f := t.newFace(poly[a], poly[b], poly[c])
				rm.created = append(rm.created, f)
				// Edge (a,b) is opposite poly[c] -> index 2; (b,c) opposite
				// poly[a] -> 0; diagonal (c,a)... our face is (A,B,C) so the
				// diagonal (A,C) is edge (C,A), opposite B -> index 1.
				t.link(f, 2, owner[a].f, owner[a].idx)
				t.link(f, 0, owner[b].f, owner[b].idx)
				// Unlink b; the diagonal (a -> c) becomes boundary owned by f.
				next[a] = c
				prev[c] = a
				owner[a] = outerOwner{f: f, idx: 1}
				remaining--
				cur = a
				found = true
				break
			}
			i = next[i]
		}
		if !found {
			return fail()
		}
	}
	// Final triangle.
	a := cur
	b := next[a]
	c := next[b]
	pa, pb, pc := t.verts[poly[a]].p, t.verts[poly[b]].p, t.verts[poly[c]].p
	if geom.Orient2D(pa, pb, pc) <= 0 {
		return fail()
	}
	f := t.newFace(poly[a], poly[b], poly[c])
	rm.created = append(rm.created, f)
	t.link(f, 2, owner[a].f, owner[a].idx)
	t.link(f, 0, owner[b].f, owner[b].idx)
	t.link(f, 1, owner[c].f, owner[c].idx)
	return true
}

// earOK reports whether (a, b, c) — consecutive active polygon indices —
// form a valid ear: strictly convex and containing no other active vertex
// in the closed triangle or on the open diagonal.
func (t *Triangulation) earOK(poly []VertexID, next []int, a, b, c int) bool {
	pa := t.verts[poly[a]].p
	pb := t.verts[poly[b]].p
	pc := t.verts[poly[c]].p
	if geom.Orient2D(pa, pb, pc) <= 0 {
		return false
	}
	for w := next[c]; w != a; w = next[w] {
		pw := t.verts[poly[w]].p
		o1 := geom.Orient2D(pa, pb, pw)
		o2 := geom.Orient2D(pb, pc, pw)
		o3 := geom.Orient2D(pc, pa, pw)
		// Strictly inside, or anywhere on the closed triangle boundary
		// (which, for a vertex of a valid triangulation, can only be the
		// diagonal): both block the ear.
		if o1 >= 0 && o2 >= 0 && o3 >= 0 {
			return false
		}
	}
	return true
}

// legalizeAmong restores the Delaunay property inside a freshly filled
// region by Lawson flips. Only edges between two faces of the region are
// flipped; the region boundary is fixed. Membership is a generation stamp
// per face (flips keep face IDs, so it stays valid throughout).
func (t *Triangulation) legalizeAmong(created []FaceID) {
	if len(created) < 2 {
		return
	}
	rm := &t.rm
	if n := len(t.faces); len(rm.mark) < n {
		rm.mark = append(rm.mark, make([]uint32, n-len(rm.mark))...)
	}
	if rm.gen++; rm.gen == 0 {
		clear(rm.mark)
		rm.gen = 1
	}
	for _, f := range created {
		rm.mark[f] = rm.gen
	}
	in := func(f FaceID) bool { return rm.mark[f] == rm.gen }
	stack := rm.flips[:0]
	for _, f := range created {
		for k := 0; k < 3; k++ {
			if in(t.faces[f].n[k]) {
				stack = append(stack, faceEdge{f, k})
			}
		}
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := e.f
		g := t.faces[f].n[e.k]
		if !in(g) {
			continue
		}
		// Shared edge may have rotated away due to earlier flips; re-derive.
		j := -1
		for kk := 0; kk < 3; kk++ {
			if t.faces[g].n[kk] == f {
				j = kk
				break
			}
		}
		if j < 0 {
			continue // no longer adjacent
		}
		fi := t.neighborIndex(f, g)
		d := t.faces[g].v[j]
		fa := t.faces[f].v[0]
		fb := t.faces[f].v[1]
		fc := t.faces[f].v[2]
		if d == Infinite || fa == Infinite || fb == Infinite || fc == Infinite {
			continue
		}
		if geom.InCircle(t.verts[fa].p, t.verts[fb].p, t.verts[fc].p, t.verts[d].p) <= 0 {
			continue
		}
		if !t.flipEdge(f, fi) {
			continue
		}
		for k := 0; k < 3; k++ {
			if in(t.faces[f].n[k]) {
				stack = append(stack, faceEdge{f, k})
			}
			if in(t.faces[g].n[k]) {
				stack = append(stack, faceEdge{g, k})
			}
		}
	}
	rm.flips = stack
}

// flipEdge flips the edge of f at index i (shared with g), replacing faces
// f=(v, a, b), g=(d, b, a) by f=(v, a, d), g=(v, d, b). Face IDs are
// preserved. Returns false if the quad is not strictly convex (flip would
// create a degenerate or inverted face).
func (t *Triangulation) flipEdge(f FaceID, i int) bool {
	g := t.faces[f].n[i]
	j := t.neighborIndex(g, f)

	vv := t.faces[f].v[i]
	a := t.faces[f].v[(i+1)%3]
	b := t.faces[f].v[(i+2)%3]
	d := t.faces[g].v[j]

	pv := t.verts[vv].p
	pa := t.verts[a].p
	pb := t.verts[b].p
	pd := t.verts[d].p
	// New faces (v, a, d) and (v, d, b) must both be strictly ccw.
	if geom.Orient2D(pv, pa, pd) <= 0 || geom.Orient2D(pv, pd, pb) <= 0 {
		return false
	}

	// Outer neighbours before rewiring.
	fa := t.faces[f].n[(i+1)%3] // across (b, v)
	fb := t.faces[f].n[(i+2)%3] // across (v, a)
	ga := t.faces[g].n[(j+1)%3] // across (a, d)
	gb := t.faces[g].n[(j+2)%3] // across (d, b)

	t.faces[f].v = [3]VertexID{vv, a, d}
	t.faces[g].v = [3]VertexID{vv, d, b}
	// f edges: opp v=(a,d)->ga; opp a=(d,v)->g; opp d=(v,a)->fb.
	t.faces[f].n = [3]FaceID{ga, g, fb}
	t.faces[g].n = [3]FaceID{gb, fa, f}
	// Fix back-pointers of the outer neighbours.
	t.faces[ga].n[t.neighborIndex(ga, g)] = f
	t.faces[fa].n[t.neighborIndex(fa, f)] = g
	// fb still points to f, gb still points to g.

	t.setFace(vv, f)
	t.setFace(a, f)
	t.setFace(d, f)
	t.setFace(b, g)
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
