package core

import (
	"sort"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
)

// This file implements the richer query mechanisms the paper sketches as
// perspectives (§7): range queries along a segment of the attribute space
// and radius (disk) queries, both resolved by local forwarding over the
// tessellation.

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
// vertex buffer for neighbour expansion. The overlay owns one, used under
// its write lock.
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
// segment. from is the query's introduction object. The call serialises:
// it accounts into the shared counters.
func (o *Overlay) RangeQuery(from ObjectID, a, b geom.Point) ([]ObjectID, QueryStats, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var st QueryStats
	// Route to the owner of the segment start.
	res, err := o.resolve(&o.rt, from, a)
	if err != nil {
		return nil, st, err
	}
	st.RouteHops = res.Hops
	return o.floodSegment(res.Owner, a, b, &st), st, nil
}

// floodSegment floods from the owner of segment start a over every object
// whose region intersects [a, b] (the set of such regions is connected, so
// neighbour forwarding covers it) and returns them ordered by projection
// onto the segment.
func (o *Overlay) floodSegment(start ObjectID, a, b geom.Point, st *QueryStats) []ObjectID {
	sc := &o.qsc
	inQuery := func(id ObjectID) bool {
		obj := o.objs[id]
		if o.tr.Dimension() < 2 {
			// Degenerate overlay (≤2 objects or all collinear): an object
			// serves the query iff it owns the segment point nearest to it.
			q := geom.ClosestPointOnSegment(obj.Pos, a, b)
			return o.ownerIs(q, id)
		}
		return o.regionIntersectsSegment(obj, a, b)
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

// regionIntersectsSegment reports whether R(obj) meets segment [a, b].
func (o *Overlay) regionIntersectsSegment(obj *Object, a, b geom.Point) bool {
	// Quick accept: the object's site projects onto the segment within its
	// own region.
	q := geom.ClosestPointOnSegment(obj.Pos, a, b)
	if o.vor.Contains(obj.vert, q) {
		return true
	}
	// Exact test via the cell polygon.
	return geom.ConvexPolygonIntersectsSegment(o.vor.Cell(obj.vert), a, b)
}

// RadiusQuery returns the objects within distance r of centre — the
// paper's "radius query, where all objects in a given disk are queried"
// (§7). The query floods outward from the owner of the centre through
// every object whose region intersects the disk, which is exactly the
// connected set whose distance to the centre is at most r. The call
// serialises: it accounts into the shared counters.
func (o *Overlay) RadiusQuery(from ObjectID, centre geom.Point, r float64) ([]ObjectID, QueryStats, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var st QueryStats
	res, err := o.resolve(&o.rt, from, centre)
	if err != nil {
		return nil, st, err
	}
	st.RouteHops = res.Hops
	return o.floodDisk(res.Owner, centre, r, &st), st, nil
}

// floodDisk floods from the owner of centre over every object whose region
// intersects the disk and returns the objects inside it, ordered by
// distance to the centre.
func (o *Overlay) floodDisk(start ObjectID, centre geom.Point, r float64, st *QueryStats) []ObjectID {
	sc := &o.qsc
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
			_, dist := o.vor.DistanceToRegion(obj.vert, centre)
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
