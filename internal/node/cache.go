package node

import (
	"container/list"
	"math"
	"sync"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// routeCache is the hot-region owner cache: a small LRU mapping a
// quantised attribute-space cell (side max(dmin, minGrid)) to the node
// last observed answering for a key in that cell, along with the exact
// key that populated it. The origin feeds the cached owner into its
// first greedy step as one more candidate; because it must still win
// the strictly-closer distance test, a stale entry can cost at most a
// wasted comparison — it can never misroute, loop, or serve a stale
// owner silently. Under a Zipf-skewed workload the hot keys' owners pin
// themselves in the cache and the route to them collapses to one hop.
//
// Coherence (DESIGN.md): populated only at the origin, from answers,
// never with an owner this node holds tombstoned; invalidated by address
// whenever the node tombstones a departure and by region when a newcomer
// takes a cached key over; cleared when this node leaves. The mutex is a
// leaf lock, safe to take under n.mu and from callbacks.
type routeCache struct {
	mu      sync.Mutex
	cap     int
	grid    float64
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used; elements hold *cacheEntry
}

// cacheEntry is one cell's binding; key is the exact point that last
// populated it.
type cacheEntry struct {
	cell  uint64
	key   geom.Point
	owner proto.NodeInfo
}

// minGrid is the quantisation floor (also for a NaN dmin): nearby keys,
// which mostly share an owner, share an entry. A shared cell can only
// cost an eviction, never correctness.
const minGrid = 1.0 / 256

func newRouteCache(capacity int, dmin float64) *routeCache {
	grid := dmin
	if grid < minGrid || math.IsNaN(grid) {
		grid = minGrid
	}
	return &routeCache{
		cap:     capacity,
		grid:    grid,
		entries: make(map[uint64]*list.Element, capacity),
		order:   list.New(),
	}
}

// cellOf quantises p to its grid cell, packed into one map key. The
// int32 fold keeps any finite point addressable (long-link targets
// overshoot the unit square).
func (rc *routeCache) cellOf(p geom.Point) uint64 {
	cx := uint64(uint32(int32(math.Floor(p.X / rc.grid))))
	cy := uint64(uint32(int32(math.Floor(p.Y / rc.grid))))
	return cx<<32 | cy
}

// Lookup returns the owner cached for p's cell, refreshing its recency.
func (rc *routeCache) Lookup(p geom.Point) (proto.NodeInfo, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[rc.cellOf(p)]
	if !ok {
		return proto.NodeInfo{}, false
	}
	rc.order.MoveToFront(el)
	return el.Value.(*cacheEntry).owner, true
}

// insert records owner as the answerer for p's cell, evicting the least
// recently used cell at capacity; an answer that names nobody is not
// worth a slot.
func (rc *routeCache) insert(p geom.Point, owner proto.NodeInfo) {
	if owner.Addr == "" {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	cell := rc.cellOf(p)
	if el, ok := rc.entries[cell]; ok {
		ent := el.Value.(*cacheEntry)
		ent.key, ent.owner = p, owner
		rc.order.MoveToFront(el)
		return
	}
	if rc.order.Len() >= rc.cap {
		oldest := rc.order.Back()
		delete(rc.entries, oldest.Value.(*cacheEntry).cell)
		rc.order.Remove(oldest)
	}
	rc.entries[cell] = rc.order.PushFront(&cacheEntry{cell: cell, key: p, owner: owner})
}

// dropIf removes every entry for which drop (run under the cache's lock)
// returns true and reports how many went.
func (rc *routeCache) dropIf(drop func(key geom.Point, owner proto.NodeInfo) bool) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	removed := 0
	for el := rc.order.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); drop(ent.key, ent.owner) {
			delete(rc.entries, ent.cell)
			rc.order.Remove(el)
			removed++
		}
		el = next
	}
	return removed
}

// invalidateOwner drops every entry naming addr and returns how many it
// removed; every departure reaches it through Node.tombstone.
func (rc *routeCache) invalidateOwner(addr string) int {
	return rc.dropIf(func(_ geom.Point, owner proto.NodeInfo) bool { return owner.Addr == addr })
}

// invalidateTakenOver drops every entry whose exact key the newcomer at
// pos is strictly closer to than the cached owner — the regions the
// caller's AddVoronoiRegion reassigned — and returns how many went.
func (rc *routeCache) invalidateTakenOver(pos geom.Point) int {
	return rc.dropIf(func(key geom.Point, owner proto.NodeInfo) bool {
		return geom.Dist2(pos, key) < geom.Dist2(owner.Pos, key)
	})
}

// Clear empties the cache.
func (rc *routeCache) Clear() { rc.dropIf(func(geom.Point, proto.NodeInfo) bool { return true }) }
