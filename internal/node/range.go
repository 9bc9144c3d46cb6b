package node

import (
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/voronoi"
)

// This file implements the distributed one-attribute range query sketched
// in the paper's perspectives (§7): "this query may be represented as a
// segment in the unit square. Then all objects lying on this segment can
// be reached easily by forwarding the query along this line."
//
// The query is greedy-routed to the owner of the segment start, then
// flooded along Voronoi neighbours: each node tests *its own region*
// against the segment — the region is computable purely from the node's
// local view (voronoi.LocalCell over vn) — answers the origin directly if
// it intersects, and forwards once to its neighbours. Per-query
// deduplication keeps the flood linear in the answer size. The whole
// flood path is read-only over the view: dedup state lives under queryMu
// and the cell test runs under the shared read lock, so concurrent floods
// and routed traffic never serialise behind view surgery.

// RangeQuery routes a segment query and invokes cb once per in-range
// object as answers arrive (ordering is arbitrary; the in-memory bus makes
// collection synchronous under Drain). There is no completion signal — the
// protocol, like the paper's sketch, is fire-and-collect; the collection
// window closes after Config.RequestTimeout, when the callback registration
// is reaped (late hits are dropped, never leaked).
func (n *Node) RangeQuery(a, b geom.Point, cb func(owner proto.NodeInfo)) error {
	n.mu.RLock()
	if !n.joined {
		n.mu.RUnlock()
		return ErrNotJoined
	}
	n.mu.RUnlock()
	n.queryMu.Lock()
	n.querySeq++
	id := n.querySeq
	pr := &pendingRange{cb: cb}
	pr.timer = time.AfterFunc(n.cfg.RequestTimeout, func() {
		n.queryMu.Lock()
		if n.rangeHits[id] == pr {
			delete(n.rangeHits, id)
		}
		n.queryMu.Unlock()
		// After reap returns no hit can invoke cb anymore, even one that
		// had already read the registration from the map.
		pr.reap()
	})
	n.rangeHits[id] = pr
	n.queryMu.Unlock()
	env := &proto.Envelope{
		Type:    proto.KindRoute,
		Purpose: proto.PurposeRange,
		Target:  a,
		TargetB: b,
		Origin:  n.self,
		QueryID: id,
	}
	n.handle(n.self.Addr, proto.AppendEncode(nil, env))
	return nil
}

// startRangeFlood begins the flood at the owner of the segment start.
func (n *Node) startRangeFlood(env *proto.Envelope) {
	fwd := *env
	fwd.Type = proto.KindRangeForward
	fwd.From = n.self
	n.handleRangeForward(&fwd)
}

// handleRangeForward processes one flood step.
func (n *Node) handleRangeForward(env *proto.Envelope) {
	key := rangeKey{origin: env.Origin.Addr, id: env.QueryID}
	n.queryMu.Lock()
	if n.rangeSeen[key] {
		n.queryMu.Unlock()
		return
	}
	n.rangeSeen[key] = true
	n.rangeOrder = append(n.rangeOrder, key)
	if len(n.rangeOrder) > maxRangeMemory {
		old := n.rangeOrder[0]
		n.rangeOrder = n.rangeOrder[1:]
		delete(n.rangeSeen, old)
	}
	n.queryMu.Unlock()

	n.mu.RLock()
	if !n.joined {
		n.mu.RUnlock()
		return
	}
	// Does our own region intersect the segment? Computable locally.
	var nbrPts []geom.Point
	for _, v := range n.vn {
		nbrPts = append(nbrPts, v.Pos)
	}
	inRange := false
	if len(nbrPts) == 0 {
		inRange = true // singleton overlay owns everything
	} else {
		q := geom.ClosestPointOnSegment(n.self.Pos, env.Target, env.TargetB)
		dq := geom.Dist2(q, n.self.Pos)
		inRange = true
		for _, p := range nbrPts {
			if geom.Dist2(q, p) < dq {
				inRange = false
				break
			}
		}
		if !inRange {
			cell := voronoi.LocalCell(n.self.Pos, nbrPts, 0)
			inRange = geom.ConvexPolygonIntersectsSegment(cell, env.Target, env.TargetB)
		}
	}
	var fwdTo []proto.NodeInfo
	if inRange {
		fwdTo = n.vnList()
	}
	n.mu.RUnlock()

	if !inRange {
		return
	}
	n.send(env.Origin.Addr, &proto.Envelope{
		Type: proto.KindRangeHit, From: n.self, QueryID: env.QueryID,
	})
	for _, v := range fwdTo {
		fwd := *env
		fwd.From = n.self
		n.send(v.Addr, &fwd)
	}
}

type rangeKey struct {
	origin string
	id     uint64
}

// maxRangeMemory bounds the per-node deduplication memory for range
// floods; old query IDs are forgotten FIFO.
const maxRangeMemory = 1024
