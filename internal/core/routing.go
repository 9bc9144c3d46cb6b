package core

import (
	"fmt"
	"math"
	"math/rand"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/kleinberg"
	"voronet/internal/voronoi"
)

// chooseLRT draws a long-link target for an object at p per Algorithm 3
// (Choose-LRT): a radius with density proportional to r^(1-s) on
// [dmin, √2] — log-uniform for the paper's s = 2 — and a uniform angle.
// The target may land outside the unit square; its owner is still the
// nearest object (§4.3.2). It draws from the overlay's own RNG, which the
// write lock guards: every caller (insert, join) holds it.
func (o *Overlay) chooseLRT(p geom.Point) geom.Point {
	return o.chooseLRTWith(o.rng, p)
}

// chooseLRTWith is chooseLRT drawing from an explicit RNG: the parallel
// bulk loader gives each worker its own deterministically-seeded stream
// (bulkload.go), so the caller owns the locking story.
func (o *Overlay) chooseLRTWith(rng *rand.Rand, p geom.Point) geom.Point {
	draw := func() geom.Point {
		r := kleinberg.SampleRadius(o.dmin, math.Sqrt2, o.cfg.LongLinkExponent, rng.Float64())
		theta := rng.Float64() * 2 * math.Pi
		return geom.Pt(p.X+r*math.Cos(theta), p.Y+r*math.Sin(theta))
	}
	tgt := draw()
	if o.cfg.InteriorTargets {
		for tries := 0; !tgt.InUnitSquare() && tries < 64; tries++ {
			tgt = draw()
		}
		if !tgt.InUnitSquare() {
			tgt = tgt.ClampUnitSquare()
		}
	}
	return tgt
}

// routeState is the mutable state one routing walk consumes: neighbour
// and grid scratch, a Voronoi scratch view for Algorithm 5's stop
// condition, and the Greedyneighbour counter to charge. The Overlay owns
// one (charged to the shared Counters, used under the write lock); every
// Router owns its own, which is what makes concurrent routing safe. Both
// paths execute the very same walk functions below, so they can never
// drift apart.
type routeState struct {
	nbuf  []delaunay.VertexID // vn of the current hop's object, walked once
	cbuf  []delaunay.VertexID // its cn scan
	vor   *voronoi.Diagram
	steps *uint64
}

// greedyNeighbor scans vn ∪ cn ∪ LRn of the object at vertex cur (whose
// position is pos) and returns the candidate closest to target, the first
// such in that order, or NoVertex when there is none. The caller has
// walked vn(cur) into rt.nbuf. Everything the scan reads is indexed by
// vertex — the triangulation's sites, the grid's chains, the long-link
// arena — so a hop probes no map and follows no object pointer.
func (o *Overlay) greedyNeighbor(rt *routeState, cur delaunay.VertexID, pos, target geom.Point) delaunay.VertexID {
	*rt.steps++
	best := delaunay.NoVertex
	bestD := math.Inf(1)
	consider := func(v delaunay.VertexID, q geom.Point) {
		if d := geom.Dist2(q, target); d < bestD {
			best, bestD = v, d
		}
	}
	for _, v := range rt.nbuf {
		consider(v, o.tr.Point(v))
	}
	if !o.cfg.DisableCloseNeighbours && !cnCannotWin(pos, target, o.dmin, bestD) {
		rt.cbuf = o.grid.within(pos, cur, rt.cbuf)
		for _, v := range rt.cbuf {
			consider(v, o.tr.Point(v))
		}
	}
	for _, l := range o.longOf(cur) {
		if l.v != delaunay.Infinite && l.v != cur {
			consider(l.v, l.pos)
		}
	}
	return best
}

// cnCannotWin reports whether the close-neighbour scan can be skipped
// without changing the greedy choice: every cn candidate lies within dmin
// of the current object, so by the triangle inequality its distance to the
// target is at least d(cur, target) − dmin. If some already-considered
// candidate beats that bound (strictly better than any cn could ever be,
// and ties keep the earlier candidate), probing the grid is pure cost —
// which is the common case away from the destination, where vn progress
// per hop dwarfs dmin.
func cnCannotWin(cur, target geom.Point, dmin, bestD float64) bool {
	if bestD == math.Inf(1) {
		return false
	}
	margin := geom.Dist(cur, target) - dmin
	return margin > 0 && bestD <= margin*margin
}

// RouteToObject greedily routes a message from object `from` to object
// `to` and returns the number of hops (Greedyneighbour calls). This is the
// measurement of Figs 6–8: mean hops between random object couples. The
// call serialises (it accounts into the shared counters); use Router for
// concurrent routing.
func (o *Overlay) RouteToObject(from, to ObjectID) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.routeToObject(&o.rt, from, to)
}

// routeToObject is the object-routing loop shared by the serial path and
// the Router. The cursor is a vertex and its position: the walk reads no
// object record between the two it starts from.
func (o *Overlay) routeToObject(rt *routeState, from, to ObjectID) (int, error) {
	src := o.objs[from]
	dst := o.objs[to]
	if src == nil || dst == nil {
		return 0, ErrNotFound
	}
	cur, pos, target := src.vert, src.Pos, dst.Pos
	hops := 0
	limit := len(o.ids) + 16
	for cur != dst.vert {
		rt.nbuf = o.tr.Neighbors(cur, rt.nbuf)
		next := o.greedyNeighbor(rt, cur, pos, target)
		hops++
		if next == delaunay.NoVertex {
			return hops, fmt.Errorf("voronet: routing stalled at %d (no neighbours)", o.byVertex[cur])
		}
		npos := o.tr.Point(next)
		if geom.Dist2(npos, target) >= geom.Dist2(pos, target) {
			// Cannot happen on a correct overlay: greedy routing on a
			// Delaunay triangulation always makes strict progress towards
			// the region owner, and the target is an object.
			return hops, fmt.Errorf("voronet: greedy routing regressed at %d", o.byVertex[cur])
		}
		if hops > limit {
			return hops, fmt.Errorf("voronet: routing exceeded %d hops", limit)
		}
		cur, pos = next, npos
	}
	return hops, nil
}

// RouteResult reports the outcome of a point routing (Algorithm 5).
type RouteResult struct {
	// Stop is the object at which the termination condition fired.
	Stop ObjectID
	// Owner is the object whose region contains the target.
	Owner ObjectID
	// Hops is the number of Greedyneighbour calls.
	Hops int
}

// resolve routes from object `from` towards an arbitrary target point per
// the framework of Algorithm 5 (routeToPoint): forward greedily while
//
//	d(DistanceToRegion(target), target) > ⅓·d(target, current)
//	and d(target, current) > dmin,
//
// then stop; the stopping object can insert the target locally (Lemma 4).
// It then names Obj(target), the object whose Voronoi region contains
// target, with a nearest-site walk from the stopping object — O(1)
// expected, since the stop condition left the walk within a constant
// factor of the target's region. Every read in the package goes through
// it: handleQuery, Router.RouteToPoint and the Store's Put, Get and
// Delete. It is read-only — all scratch comes from rt, and it touches
// neither the triangulation's walk RNG nor its hint — so any number of
// callers may run it under the overlay's read lock, each with its own rt.
func (o *Overlay) resolve(rt *routeState, from ObjectID, target geom.Point) (RouteResult, error) {
	src := o.objs[from]
	if src == nil {
		return RouteResult{}, ErrNotFound
	}
	stop, hops, err := o.routeToPoint(rt, src.vert, target)
	if err != nil {
		return RouteResult{Hops: hops}, err
	}
	var v delaunay.VertexID
	v, rt.nbuf = o.tr.NearestSiteRO(target, stop, rt.nbuf)
	return RouteResult{Stop: o.byVertex[stop], Owner: o.byVertex[v], Hops: hops}, nil
}

// routeToPoint walks from vertex cur until Algorithm 5's stop condition
// holds and returns the stopping vertex and the hop count. Shared by the
// serial path and the Router via rt. Each hop walks the fan of cur once:
// the stop test and the greedy scan both read rt.nbuf.
func (o *Overlay) routeToPoint(rt *routeState, cur delaunay.VertexID, target geom.Point) (delaunay.VertexID, int, error) {
	pos := o.tr.Point(cur)
	hops := 0
	limit := len(o.ids) + 16
	for {
		dCur := geom.Dist(target, pos)
		if dCur <= o.dmin {
			return cur, hops, nil
		}
		rt.nbuf = o.tr.Neighbors(cur, rt.nbuf)
		// Cheap one-pass lower bound first; the exact cell-based distance
		// only runs near the stop, where the bound cannot decide. A
		// degenerate overlay (≤2 objects or collinear) has halfplanes and
		// slabs for regions: it routes greedily to the nearest object.
		if o.tr.Dimension() >= 2 && !rt.vor.BeyondBisectors(cur, rt.nbuf, target, dCur/3) {
			if _, dz := rt.vor.DistanceToRegion(cur, target); dz <= dCur/3 {
				return cur, hops, nil
			}
		}
		next := o.greedyNeighbor(rt, cur, pos, target)
		hops++
		if next == delaunay.NoVertex {
			return cur, hops, nil
		}
		npos := o.tr.Point(next)
		if geom.Dist2(npos, target) >= geom.Dist2(pos, target) {
			if o.tr.Dimension() < 2 {
				return cur, hops, nil
			}
			return cur, hops, fmt.Errorf("voronet: point routing regressed at %d", o.byVertex[cur])
		}
		if hops > limit {
			return cur, hops, fmt.Errorf("voronet: point routing exceeded %d hops", limit)
		}
		cur, pos = next, npos
	}
}

// Join adds an object at p through the full distributed protocol
// (Algorithm 1, AddObject): greedy-route from the introduction point `via`
// until the stop condition, insert a fictive object z at
// DistanceToRegion(p) when p is not locally insertable, insert the object,
// remove the fictive one, and establish each long link by SearchLongLink
// (Algorithm 2), which routes and inserts two fictive objects of its own.
// Every fictive object is charged, not built (fictiveID); all costs are
// accounted in Counters.
//
// via may be NoObject, in which case a deterministic arbitrary object is
// used as the introduction point (the paper assumes each joining object
// knows one object in the overlay).
func (o *Overlay) Join(p geom.Point, via ObjectID) (ObjectID, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.join(p, via)
}

func (o *Overlay) join(p geom.Point, via ObjectID) (ObjectID, error) {
	if err := checkFinite(p); err != nil {
		return NoObject, err
	}
	if len(o.ids) == 0 {
		// Bootstrap: the first object has the whole square as its region;
		// its long links necessarily point to itself.
		id, err := o.insert(p, delaunay.NoVertex)
		if err == nil {
			o.counters.Joins++
		}
		return id, err
	}
	start := o.objs[via]
	if start == nil {
		start = o.objs[o.ids[0]]
	}

	// Route towards the new position (AddObject's loop).
	stop, hops, err := o.routeToPoint(&o.rt, start.vert, p)
	if err != nil {
		return NoObject, err
	}
	o.counters.JoinRouteSteps += uint64(hops)

	id, obj, err := o.insertBehindStone(stop, p)
	if err != nil {
		return NoObject, err
	}
	// The take-over runs against the joiner's final, all-real
	// neighbourhood: the stepping-stone has left by then.
	o.takeOver(obj)
	// AddVoronoiRegion exchanges O(|vn|) messages (§4.2.1).
	o.nbuf = o.tr.Neighbors(obj.vert, o.nbuf)
	o.counters.MaintenanceMessages += uint64(len(o.nbuf))

	// Establish the long links through the routed protocol (Algorithm 2).
	if !o.cfg.DisableLongLinks {
		for j := 0; j < o.cfg.LongLinks; j++ {
			tgt := o.chooseLRT(p)
			ownerID, lhops, err := o.searchLongLink(obj, tgt)
			if err != nil {
				return NoObject, err
			}
			o.counters.JoinRouteSteps += uint64(lhops)
			obj.longTargets = append(obj.longTargets, tgt)
			holder := o.objs[ownerID]
			o.setLong(obj, j, holder)
			holder.addBack(obj, j)
		}
	}
	o.counters.Joins++
	return id, nil
}

// searchLongLink implements Algorithm 2: route from obj towards the target
// point, then name the owning object and charge the search's two fictive
// objects (fictiveOwner).
func (o *Overlay) searchLongLink(obj *Object, tgt geom.Point) (ObjectID, int, error) {
	stop, hops, err := o.routeToPoint(&o.rt, obj.vert, tgt)
	if err != nil {
		return NoObject, hops, err
	}
	return o.fictiveOwner(stop, tgt), hops, nil
}

// insertBehindStone is Algorithm 1 from the stopping vertex on: the
// stepping-stone z = DistanceToRegion(p), unless p is already in R(stop)
// (Lemma 4 lets us insert z, then p from z, then remove z), and the joiner
// inserted directly with stop as the hint. z is inserted before the joiner,
// so it takes the ID before the joiner's, and it is charged even when p
// turns out to be taken.
func (o *Overlay) insertBehindStone(stop delaunay.VertexID, p geom.Point) (ObjectID, *Object, error) {
	z, dz := o.fictiveSite(stop, p)
	zFree := dz > 0 && o.tr.CavityRO(z, stop, &o.cz)
	if zFree {
		o.fictiveID()
	}
	id, obj, err := o.insertBase(p, stop)
	if zFree {
		ring := o.cz.Degree()
		if err == nil {
			ring = o.tr.DegreeWith(&o.cz, z, p)
		}
		// The joiner, inserted, is in the grid: it counts among z's close
		// neighbours without help.
		o.chargeRemoval(z, ring)
	}
	return id, obj, err
}

// fictiveOwner is Algorithm 2 from the stopping vertex on. The paper names
// the owner by inserting two fictive objects ("finding LRn(x) requires to
// add two objects (to be removed!)"): the stepping-stone z =
// DistanceToRegion(tgt), then the Target at tgt; z leaves, the Target's
// nearest Voronoi neighbour is the owner, and the Target leaves. Both are
// charged, not built (fictiveID). The owner is the site nearest tgt, which
// a read-only walk from the stopping object names. z's ring when it leaves
// is its star with the Target's conflicts applied (DegreeWith), and its
// close neighbours include the Target when that lies within dmin; the
// Target's ring is its own cavity's boundary, z being gone by then.
func (o *Overlay) fictiveOwner(stop delaunay.VertexID, tgt geom.Point) ObjectID {
	z, dz := o.fictiveSite(stop, tgt)
	zFree := dz > 0 && o.tr.CavityRO(z, stop, &o.cz)
	tFree := o.tr.CavityRO(tgt, stop, &o.ct) // a charged z lies dz > 0 from tgt
	if zFree {
		o.fictiveID()
		ring := o.cz.Degree()
		if tFree {
			ring = o.tr.DegreeWith(&o.cz, z, tgt)
			if geom.Dist2(z, tgt) <= o.grid.r2 {
				ring++ // the Target, a close neighbour the grid does not hold
			}
		}
		o.chargeRemoval(z, ring)
	}
	if tFree {
		o.fictiveID()
		o.chargeRemoval(tgt, o.ct.Degree())
	}
	var v delaunay.VertexID
	v, o.nbuf = o.tr.NearestSiteRO(tgt, stop, o.nbuf)
	return o.byVertex[v]
}

// fictiveID charges the insertion of a fictive object — the z of
// Algorithm 1, the z and Target of Algorithm 2 — which is charged what
// inserting and removing it would cost and is never built: the figures and
// digests read only that charge and the owner the probe names, and the
// cavity the insertion would carve (delaunay.CavityRO) determines both. A
// fictive object would take, hold and re-delegate no BLRn entry and owns
// no long link, so the charge is this — the object ID it takes, so that
// every real object keeps the ID the literal protocol gives it, and the
// count — and chargeRemoval.
func (o *Overlay) fictiveID() {
	o.nextID++
	o.counters.FictiveInserts++
}

// chargeRemoval charges the removal of a fictive object at p, as remove
// counts it: one message to each of its ring Voronoi neighbours (plus any
// fictive close neighbour the caller adds in) and one to each object the
// close-neighbour grid holds within dmin of p.
func (o *Overlay) chargeRemoval(p geom.Point, ring int) {
	o.nbuf = o.grid.within(p, delaunay.NoVertex, o.nbuf)
	o.counters.MaintenanceMessages += uint64(ring + len(o.nbuf))
}

// fictiveSite computes z = DistanceToRegion(target) at the object at
// vertex cur, handling the degenerate (dim < 2) overlay where regions are
// not polygons: there z is cur's own site, which is taken.
func (o *Overlay) fictiveSite(cur delaunay.VertexID, target geom.Point) (geom.Point, float64) {
	if o.tr.Dimension() < 2 {
		pos := o.tr.Point(cur)
		return pos, geom.Dist(pos, target)
	}
	return o.vor.DistanceToRegion(cur, target)
}

// handleQuery implements Algorithm 4: route the query point from object
// `from`, determine the owner, and "answer" it by returning the owner.
// Hops is the Greedyneighbour count.
//
// The stopping object names Obj(query) by resolve's read-only walk, as
// searchLongLink does for a long-link target; the paper's literal fictive
// insert/remove dance names the same owner (the test oracle of
// TestOwnerResolutionEquivalence). The call serialises against the overlay
// (it updates the shared counters). It is the serial reference that
// TestRouterQueriesMatchSerial holds Router.RouteToPoint to; the
// Router/Store fast path is the product's entry point.
func (o *Overlay) handleQuery(from ObjectID, query geom.Point) (RouteResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	res, err := o.resolve(&o.rt, from, query)
	if err != nil {
		return res, err
	}
	o.counters.MaintenanceMessages++ // AnswerQuery back to the requester
	o.counters.Queries++
	return res, nil
}
