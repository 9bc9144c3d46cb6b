package node

import (
	"voronet/internal/cellcache"
	"voronet/internal/geom"
	"voronet/internal/proto"
)

// routeCache is the hot-region owner cache: a small LRU
// (internal/cellcache) mapping a quantised attribute-space cell to the
// node last observed answering for a key in that cell, along with the
// exact key that populated it. The origin consults it before the greedy scan and feeds the
// cached owner in as one more next-hop candidate; because the candidate
// must still win the strictly-closer distance test, a stale entry can
// cost at most a wasted comparison — it can never misroute, loop, or
// serve a stale owner silently. Under a Zipf-skewed workload the hot
// keys' owners pin themselves in the cache and the route to them
// collapses to one hop.
//
// Coherence rules (see DESIGN.md):
//   - populated only at the origin, from answers (Query answers and
//     store replies carry the answering node);
//   - invalidated by address whenever the node tombstones a departure
//     (leave, crash repair, tombstone gossip) — a dead owner must not
//     linger even as a candidate;
//   - invalidated by region when a newcomer integrates: every entry
//     whose key the newcomer is strictly closer to than the cached
//     owner is dropped, since that region is no longer the owner's;
//   - cleared wholesale when this node leaves.
//
// Locking: the LRU has its own leaf mutex and takes no other lock, so
// it is safe to touch from under n.mu (read or write) and from callback
// paths alike.
type routeCache struct {
	*cellcache.LRU[proto.NodeInfo]
}

func newRouteCache(capacity int, dmin float64) *routeCache {
	return &routeCache{cellcache.New[proto.NodeInfo](capacity, dmin)}
}

// insert records owner as the answerer for p's cell; an answer that
// names nobody is not worth a slot.
func (rc *routeCache) insert(p geom.Point, owner proto.NodeInfo) {
	if owner.Addr != "" {
		rc.Insert(p, owner)
	}
}

// invalidateOwner drops every entry naming addr and returns how many it
// removed. Called from the tombstone path: leave, crash repair and
// tombstone gossip all funnel through it.
func (rc *routeCache) invalidateOwner(addr string) int {
	return rc.DropIf(func(_ geom.Point, owner proto.NodeInfo) bool { return owner.Addr == addr })
}

// invalidateTakenOver drops every entry whose key the newcomer at pos is
// strictly closer to than the cached owner — those regions changed hands
// in the AddVoronoiRegion the caller just executed. The test runs against
// the exact key that populated the entry, so it mirrors the ownership
// comparison the store layer makes. Returns the number removed.
func (rc *routeCache) invalidateTakenOver(pos geom.Point) int {
	return rc.DropIf(func(key geom.Point, owner proto.NodeInfo) bool {
		return geom.Dist2(pos, key) < geom.Dist2(owner.Pos, key)
	})
}
