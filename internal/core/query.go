package core

import (
	"sort"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/voronoi"
)

// This file implements the richer query mechanisms the paper sketches as
// perspectives (§7): range queries along a segment of the attribute space
// and radius (disk) queries, both resolved by local forwarding over the
// tessellation, plus the dynamic-NMax adaptation sketch.

// QueryStats accounts the cost of a multi-object query.
type QueryStats struct {
	// RouteHops is the greedy hop count to reach the query area.
	RouteHops int
	// ForwardMessages is the number of forwarding messages inside the
	// query area (one per visited object beyond the first).
	ForwardMessages int
	// Visited is the number of objects that processed the query.
	Visited int
}

// queryScratch is the reusable state of one query flood: a
// generation-stamped visited set (cleared in O(1) by bumping the
// generation instead of reallocating a map per call), the worklist, and a
// vertex buffer for neighbour expansion. The overlay owns one for the
// serially-accounted query path; every Router owns its own.
type queryScratch struct {
	mark  map[ObjectID]uint64
	gen   uint64
	queue []ObjectID
	vbuf  []delaunay.VertexID
}

// begin starts a new flood: all previous marks become stale at once.
// live bounds the mark map: ObjectIDs are never reused, so under churn a
// long-lived scratch would otherwise accumulate one entry per object ever
// visited; when the map far outgrows the live population it is rebuilt.
func (sc *queryScratch) begin(live int) {
	if sc.mark == nil || len(sc.mark) > 4*live+64 {
		sc.mark = make(map[ObjectID]uint64, live)
	}
	sc.gen++
	sc.queue = sc.queue[:0]
}

func (sc *queryScratch) push(id ObjectID) bool {
	if sc.mark[id] == sc.gen {
		return false
	}
	sc.mark[id] = sc.gen
	sc.queue = append(sc.queue, id)
	return true
}

// RangeQuery returns the objects whose Voronoi region intersects the
// segment [a, b] — the paper's one-attribute range query, "represented as a
// segment in the unit square ... reached easily by forwarding the query
// along this line" (§7). Results are ordered by projection onto the
// segment. from is the query's introduction object. The call serialises
// (it accounts into the shared counters); Router.RangeQuery is the
// concurrent equivalent.
func (o *Overlay) RangeQuery(from ObjectID, a, b geom.Point) ([]ObjectID, QueryStats, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rangeQuery(&o.rt, &o.qsc, from, a, b)
}

// rangeQuery is the route-to-start-then-flood implementation shared by
// the serial path and the Router: all mutable state comes from rt and sc,
// so the two paths cannot drift apart.
func (o *Overlay) rangeQuery(rt *routeState, sc *queryScratch, from ObjectID, a, b geom.Point) ([]ObjectID, QueryStats, error) {
	var st QueryStats
	// Route to the owner of the segment start.
	res, err := o.resolve(rt, from, a)
	if err != nil {
		return nil, st, err
	}
	st.RouteHops = res.Hops
	result := o.floodSegment(res.Owner, a, b, rt.vor, sc, &st)
	return result, st, nil
}

// floodSegment floods from the owner of segment start a over every object
// whose region intersects [a, b] (the set of such regions is connected, so
// neighbour forwarding covers it) and returns them ordered by projection
// onto the segment. vor and sc supply the caller's scratch, so concurrent
// callers never share state.
func (o *Overlay) floodSegment(start ObjectID, a, b geom.Point, vor *voronoi.Diagram, sc *queryScratch, st *QueryStats) []ObjectID {
	inQuery := func(id ObjectID) bool {
		obj := o.objs[id]
		if o.tr.Dimension() < 2 {
			// Degenerate overlay (≤2 objects or all collinear): an object
			// serves the query iff it owns the segment point nearest to it.
			q := geom.ClosestPointOnSegment(obj.Pos, a, b)
			return o.ownerIs(q, id)
		}
		return o.regionIntersectsSegment(obj, a, b, vor)
	}

	sc.begin(len(o.ids))
	var result []ObjectID
	sc.push(start)
	for len(sc.queue) > 0 {
		id := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		if !inQuery(id) {
			continue
		}
		result = append(result, id)
		st.Visited++
		sc.vbuf = o.tr.Neighbors(o.objs[id].vert, sc.vbuf)
		for _, v := range sc.vbuf {
			if sc.push(o.byVertex[v]) {
				st.ForwardMessages++
			}
		}
	}
	// Order results along the segment.
	dir := b.Sub(a)
	sort.Slice(result, func(i, j int) bool {
		pi := o.objs[result[i]].Pos.Sub(a).Dot(dir)
		pj := o.objs[result[j]].Pos.Sub(a).Dot(dir)
		return pi < pj
	})
	return result
}

func (o *Overlay) ownerIs(p geom.Point, id ObjectID) bool {
	obj := o.objs[id]
	dp := geom.Dist2(p, obj.Pos)
	for _, other := range o.ids {
		if geom.Dist2(p, o.objs[other].Pos) < dp {
			return false
		}
	}
	return true
}

// regionIntersectsSegment reports whether R(obj) meets segment [a, b],
// evaluated against the caller's Voronoi scratch view.
func (o *Overlay) regionIntersectsSegment(obj *Object, a, b geom.Point, vor *voronoi.Diagram) bool {
	// Quick accept: the object's site projects onto the segment within its
	// own region.
	q := geom.ClosestPointOnSegment(obj.Pos, a, b)
	if vor.Contains(obj.vert, q) {
		return true
	}
	// Exact test via the cell polygon.
	return geom.ConvexPolygonIntersectsSegment(vor.Cell(obj.vert), a, b)
}

// RadiusQuery returns the objects within distance r of centre — the
// paper's "radius query, where all objects in a given disk are queried"
// (§7). The query floods outward from the owner of the centre through
// every object whose region intersects the disk, which is exactly the
// connected set DistanceToRegion ≤ r. The call serialises;
// Router.RadiusQuery is the concurrent equivalent.
func (o *Overlay) RadiusQuery(from ObjectID, centre geom.Point, r float64) ([]ObjectID, QueryStats, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.radiusQuery(&o.rt, &o.qsc, from, centre, r)
}

// radiusQuery is the shared implementation behind Overlay.RadiusQuery and
// Router.RadiusQuery; see rangeQuery.
func (o *Overlay) radiusQuery(rt *routeState, sc *queryScratch, from ObjectID, centre geom.Point, r float64) ([]ObjectID, QueryStats, error) {
	var st QueryStats
	res, err := o.resolve(rt, from, centre)
	if err != nil {
		return nil, st, err
	}
	st.RouteHops = res.Hops
	result := o.floodDisk(res.Owner, centre, r, rt.vor, sc, &st)
	return result, st, nil
}

// floodDisk floods from the owner of centre over every object whose region
// intersects the disk and returns the objects inside it, ordered by
// distance to the centre. vor and sc supply the caller's scratch.
func (o *Overlay) floodDisk(start ObjectID, centre geom.Point, r float64, vor *voronoi.Diagram, sc *queryScratch, st *QueryStats) []ObjectID {
	sc.begin(len(o.ids))
	var result []ObjectID
	sc.push(start)
	for len(sc.queue) > 0 {
		id := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		obj := o.objs[id]
		intersects := false
		if o.tr.Dimension() < 2 {
			intersects = geom.Dist(obj.Pos, centre) <= r || o.ownerIs(centre, id)
		} else {
			_, dist := vor.DistanceToRegion(obj.vert, centre)
			intersects = dist <= r
		}
		if !intersects {
			continue
		}
		st.Visited++
		if geom.Dist(obj.Pos, centre) <= r {
			result = append(result, id)
		}
		sc.vbuf = o.tr.Neighbors(obj.vert, sc.vbuf)
		for _, v := range sc.vbuf {
			if sc.push(o.byVertex[v]) {
				st.ForwardMessages++
			}
		}
	}
	sort.Slice(result, func(i, j int) bool {
		return geom.Dist2(o.objs[result[i]].Pos, centre) < geom.Dist2(o.objs[result[j]].Pos, centre)
	})
	return result
}

// SetNMax implements the dynamic-NMax perspective (§7, second point): when
// the overlay grows past its provisioned size, raise NMax, shrink dmin
// accordingly, and re-draw the long links of the objects whose close
// neighbourhood became denser than the threshold ("updating only the
// objects whose neighbourhood is too dense"). Returns the number of
// objects whose links were re-drawn.
func (o *Overlay) SetNMax(nmax, denseThreshold int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.setNMax(nmax, denseThreshold)
}

func (o *Overlay) setNMax(nmax, denseThreshold int) int {
	if nmax <= 0 || nmax == o.cfg.NMax {
		return 0
	}
	o.cfg.NMax = nmax
	o.dmin = DefaultDMin(nmax)

	// Rebuild the close-neighbour grid at the new radius, keeping the old
	// one for the density test below: an index answers only the radius it
	// was built for.
	prev := o.grid
	o.grid = newCloseIndex(o.tr, o.dmin, nmax)
	for _, id := range o.ids {
		o.grid.add(o.objs[id].vert)
	}

	if o.cfg.DisableLongLinks {
		return 0
	}
	refreshed := 0
	for _, id := range o.ids {
		obj := o.objs[id]
		// Density test against the *previous* radius: objects that had more
		// close neighbours than the threshold re-draw their links under the
		// new dmin.
		o.rt.cbuf = prev.within(obj.Pos, obj.vert, o.rt.cbuf)
		if len(o.rt.cbuf) <= denseThreshold {
			continue
		}
		refreshed++
		for j := range obj.longTargets {
			// Withdraw the old link...
			if holder := o.objs[o.longNeighbor(obj, j)]; holder != nil {
				holder.dropBack(obj, j)
			}
			// ...and draw a fresh one under the new dmin.
			tgt := o.chooseLRT(obj.Pos)
			obj.longTargets[j] = tgt
			holder := o.objs[o.byVertex[o.tr.NearestSite(tgt, obj.vert)]]
			o.setLong(obj, j, holder)
			holder.addBack(obj, j)
		}
	}
	return refreshed
}
