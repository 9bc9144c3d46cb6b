package core

import (
	"sync/atomic"

	"voronet/internal/cellcache"
	"voronet/internal/geom"
)

// ownerCache is the simulator mirror of the distributed hot-region owner
// cache (internal/node's Config.RouteCacheSize): a small shared LRU
// (internal/cellcache) mapping a quantised attribute-space cell to the
// object last resolved as the owner of a key in that cell. Routers consult it at the start of
// resolve and, when the cached object is strictly closer to the target
// than the origin, jump straight to it (one hop) before the greedy walk
// continues — the in-process equivalent of feeding the cached owner into
// the origin's next-hop scan. The strictly-closer guard is the whole
// safety argument: a stale entry (owner departed, region shrank, ID slot
// reused) either fails the guard or merely starts the walk somewhere
// closer, so it can cost a wasted comparison but never misroute.
//
// The cache is shared by every Router of the overlay (the pooled store
// clients included) behind the LRU's leaf mutex; it takes no overlay lock,
// so it is safe to touch from under the overlay's read lock on every
// resolve. Entries naming a removed object are dropped eagerly by
// Overlay.remove; everything else ages out by LRU.
type ownerCache struct {
	*cellcache.LRU[ObjectID]

	hits, misses, jumps atomic.Uint64
}

func newOwnerCache(capacity int, dmin float64) *ownerCache {
	return &ownerCache{LRU: cellcache.New[ObjectID](capacity, dmin)}
}

// lookup returns the cached owner for p's cell and counts the outcome.
func (c *ownerCache) lookup(p geom.Point) (ObjectID, bool) {
	id, ok := c.Lookup(p)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return id, ok
}

// invalidateOwner drops every entry naming id and returns how many it
// removed — called when the object leaves the overlay, so a dead owner
// does not linger even as a jump hint.
func (c *ownerCache) invalidateOwner(id ObjectID) int {
	return c.DropIf(func(_ geom.Point, owner ObjectID) bool { return owner == id })
}

// RouteCacheStats snapshots the owner cache's counters.
type RouteCacheStats struct {
	// Hits and Misses count lookup outcomes; Jumps counts the hits whose
	// cached owner actually won the strictly-closer guard and shortcut
	// the walk (a hit on a stale or farther owner is not a jump).
	Hits, Misses, Jumps uint64
	// Entries is the current resident entry count.
	Entries int
}

// SetRouteCache installs a shared hot-region owner cache with the given
// capacity on the overlay (capacity <= 0 removes it). Every Router —
// including the Store's pooled clients — consults it in resolve. Not
// safe to call concurrently with routing; configure before driving load.
func (o *Overlay) SetRouteCache(capacity int) {
	if capacity <= 0 {
		o.cache = nil
		return
	}
	o.cache = newOwnerCache(capacity, o.dmin)
}

// RouteCacheStats returns the owner cache's counters (zero value when no
// cache is installed).
func (o *Overlay) RouteCacheStats() RouteCacheStats {
	c := o.cache
	if c == nil {
		return RouteCacheStats{}
	}
	return RouteCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Jumps:   c.jumps.Load(),
		Entries: c.Len(),
	}
}

// SetRouteCache delegates to the overlay: one shared cache accelerates
// every pooled store client. Configure before driving load.
func (s *Store) SetRouteCache(capacity int) { s.ov.SetRouteCache(capacity) }

// RouteCacheStats returns the shared owner cache's counters.
func (s *Store) RouteCacheStats() RouteCacheStats { return s.ov.RouteCacheStats() }
