package core

import (
	"fmt"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// CheckInvariants validates the complete overlay state. With deep=true it
// additionally verifies the long-link ownership invariant against the
// ground-truth tessellation (O(n) nearest-site queries). Intended for
// tests; returns the first violation.
//
// Invariants:
//
//  1. the underlying triangulation is a valid Delaunay triangulation;
//  2. object/vertex/id bookkeeping is bijective and consistent;
//  3. every object has exactly Config.LongLinks long links (unless
//     disabled); each one's arena slot is empty or names a live vertex,
//     carries that vertex's site bit for bit and is registered in its
//     holder's BLRn set; slots past an object's links, and every slot of a
//     free vertex, are zero;
//  4. every BLRn entry points at the live record of an object whose
//     corresponding long link names the holder, and carries that link's
//     target bit for bit;
//  5. deep: LRn_j(w) is exactly the object owning the region containing
//     LRt_j(w) — the paper's long-link placement invariant ("the object in
//     charge of the target of the long range link is always the closest
//     from the target point", §3.3);
//  6. every live vertex is on exactly one chain of the close-neighbour
//     index, the chain of its (clamped) cell; deep: the index agrees with
//     Lemma 1's local computation.
func (o *Overlay) CheckInvariants(deep bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.tr.Validate(); err != nil {
		return fmt.Errorf("triangulation: %w", err)
	}
	liveVerts := 0
	for _, id := range o.byVertex {
		if id != NoObject {
			liveVerts++
		}
	}
	if len(o.objs) != len(o.ids) || len(o.objs) != liveVerts {
		return fmt.Errorf("bookkeeping sizes diverge: objs=%d ids=%d byVertex=%d",
			len(o.objs), len(o.ids), liveVerts)
	}
	if o.tr.NumSites() != len(o.objs) {
		return fmt.Errorf("triangulation has %d sites for %d objects", o.tr.NumSites(), len(o.objs))
	}
	for i, id := range o.ids {
		obj := o.objs[id]
		if obj == nil {
			return fmt.Errorf("ids[%d]=%d has no object", i, id)
		}
		if obj.ID != id || int(obj.slot) != i {
			return fmt.Errorf("ids[%d]=%d is object %d with slot %d", i, id, obj.ID, obj.slot)
		}
		if o.byVertex[obj.vert] != id {
			return fmt.Errorf("byVertex[%d]=%d, want %d", obj.vert, o.byVertex[obj.vert], id)
		}
		if !o.tr.Alive(obj.vert) {
			return fmt.Errorf("object %d references dead vertex %d", id, obj.vert)
		}
		if o.tr.Point(obj.vert) != obj.Pos {
			return fmt.Errorf("object %d position diverges from its site", id)
		}
	}

	// Long links and BLRn cross-consistency.
	if len(o.long) != len(o.byVertex)*o.cfg.LongLinks {
		return fmt.Errorf("long-link arena holds %d slots for %d vertices of %d links", len(o.long), len(o.byVertex), o.cfg.LongLinks)
	}
	for v, id := range o.byVertex {
		if id != NoObject {
			continue
		}
		for j, l := range o.longOf(delaunay.VertexID(v)) {
			if l != (longLink{}) {
				return fmt.Errorf("free vertex %d keeps long link %d: %+v", v, j, l)
			}
		}
	}
	for _, id := range o.ids {
		obj := o.objs[id]
		if !o.cfg.DisableLongLinks && len(obj.longTargets) != o.cfg.LongLinks {
			return fmt.Errorf("object %d has %d long links, want %d", id, len(obj.longTargets), o.cfg.LongLinks)
		}
		for j, l := range o.longOf(obj.vert) {
			if l == (longLink{}) {
				continue // legitimately orphaned (overlay emptied past it), or no such link
			}
			if j >= len(obj.longTargets) {
				return fmt.Errorf("object %d has %d long links and a slot %d: %+v", id, len(obj.longTargets), j, l)
			}
			if !o.tr.Alive(l.v) || o.tr.Point(l.v) != l.pos {
				return fmt.Errorf("object %d long link %d names vertex %d at %v; the site is %v", id, j, l.v, l.pos, o.tr.Point(l.v))
			}
			holder := o.objs[o.byVertex[l.v]]
			if holder == nil {
				return fmt.Errorf("object %d long link %d names vertex %d, which has no object", id, j, l.v)
			}
			if holder.backIndex(obj, j) < 0 {
				return fmt.Errorf("object %d long link %d not registered in BLRn(%d)", id, j, holder.ID)
			}
		}
		for _, e := range obj.back {
			w, j := e.obj, int(e.link)
			if w == nil || o.objs[w.ID] != w {
				return fmt.Errorf("BLRn(%d) entry %+v is not a live object record", id, e)
			}
			if j >= len(w.longTargets) || o.longOf(w.vert)[j].v != obj.vert {
				return fmt.Errorf("BLRn(%d) entry (%d,%d) not mirrored", id, w.ID, j)
			}
			if e.tgt != w.longTargets[j] {
				return fmt.Errorf("BLRn(%d) entry (%d,%d) carries target %v, link has %v", id, w.ID, j, e.tgt, w.longTargets[j])
			}
		}
	}

	if err := o.grid.check(len(o.ids)); err != nil {
		return err
	}

	if deep {
		// The reference owner is walked from the object itself, never from
		// the close-neighbour grid, so it checks the grid-seeded walks of
		// insert and BulkLoad rather than repeating them; and read-only, so
		// the check leaves the walk state it checks as it found it.
		var vbuf []delaunay.VertexID
		for _, id := range o.ids {
			obj := o.objs[id]
			for j, tgt := range obj.longTargets {
				var ownerV delaunay.VertexID
				ownerV, vbuf = o.tr.NearestSiteRO(tgt, obj.vert, vbuf)
				want := o.byVertex[ownerV]
				got := o.longNeighbor(obj, j)
				if got != want && !o.equidistantOwners(tgt, got, want) {
					return fmt.Errorf("object %d long link %d points to %d, owner is %d", id, j, got, want)
				}
			}
		}
		// Lemma 1 agreement on a sample of objects (all of them when small).
		for i, id := range o.ids {
			if len(o.ids) > 500 && i%97 != 0 {
				continue
			}
			if err := o.checkLemma1(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// equidistantOwners reports whether a and b are both at minimal distance
// from tgt (ties on region boundaries make the owner ambiguous; either
// choice is a correct "closest object").
func (o *Overlay) equidistantOwners(tgt geom.Point, a, b ObjectID) bool {
	oa, ob := o.objs[a], o.objs[b]
	if oa == nil || ob == nil {
		return false
	}
	return geom.Dist2(oa.Pos, tgt) == geom.Dist2(ob.Pos, tgt)
}

// closeNeighborsLemma1 computes cn(id) the way the distributed protocol
// does after Lemma 1: every close neighbour of a freshly inserted object is
// either one of its Voronoi neighbours or a close neighbour of one of them.
// The simulator's grid index must agree exactly; CheckInvariants enforces
// this.
func (o *Overlay) closeNeighborsLemma1(id ObjectID) ([]ObjectID, error) {
	obj := o.objs[id]
	if obj == nil {
		return nil, ErrNotFound
	}
	seen := map[ObjectID]bool{id: true}
	var out []ObjectID
	consider := func(cid ObjectID) {
		if seen[cid] {
			return
		}
		seen[cid] = true
		if geom.Dist(o.objs[cid].Pos, obj.Pos) <= o.dmin {
			out = append(out, cid)
		}
	}
	var vbuf, cbuf []delaunay.VertexID
	vbuf = o.tr.Neighbors(obj.vert, vbuf)
	for _, v := range vbuf {
		consider(o.byVertex[v])
		// Close neighbours of the Voronoi neighbour.
		cbuf = o.grid.within(o.tr.Point(v), v, cbuf)
		for _, cv := range cbuf {
			consider(o.byVertex[cv])
		}
	}
	return out, nil
}

func (o *Overlay) checkLemma1(id ObjectID) error {
	viaLemma, err := o.closeNeighborsLemma1(id)
	if err != nil {
		return err
	}
	direct, err := o.closeNeighbors(id, nil)
	if err != nil {
		return err
	}
	if len(viaLemma) != len(direct) {
		return fmt.Errorf("Lemma 1 computation for %d yields %d close neighbours, grid yields %d",
			id, len(viaLemma), len(direct))
	}
	set := make(map[ObjectID]bool, len(direct))
	for _, d := range direct {
		set[d] = true
	}
	for _, l := range viaLemma {
		if !set[l] {
			return fmt.Errorf("Lemma 1 found %d not in grid answer for %d", l, id)
		}
	}
	return nil
}
