// Package cellcache is the quantised-cell LRU under the live node's route
// cache (internal/node): the attribute space is cut into square cells and
// each cell remembers the value last inserted for a point inside it,
// least recently used cells giving way at capacity. What a value means,
// and when entries must be dropped for coherence, is the caller's
// business (DropIf).
package cellcache

import (
	"container/list"
	"math"
	"sync"

	"voronet/internal/geom"
)

// minGrid is the quantisation floor: cells never get finer than this
// however small the close-neighbour radius, so nearby keys — which mostly
// share an owner — share an entry. A shared cell can only cost an
// eviction, never correctness.
const minGrid = 1.0 / 256

// LRU maps grid cells to values. It has its own leaf mutex and takes no
// other lock, so it is safe to use from under any caller lock.
type LRU[V any] struct {
	mu      sync.Mutex
	cap     int
	grid    float64
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used; elements hold *entry[V]
}

// entry is one cell's binding. key is the exact point that last
// populated the cell, so DropIf predicates can run the same distance
// comparisons the routing layer makes rather than ones against a cell
// centre.
type entry[V any] struct {
	cell uint64
	key  geom.Point
	val  V
}

// New builds an LRU of the given capacity whose cell side is dmin,
// floored at minGrid (a NaN dmin — unset configuration — gets the floor
// too).
func New[V any](capacity int, dmin float64) *LRU[V] {
	grid := dmin
	if grid < minGrid || math.IsNaN(grid) {
		grid = minGrid
	}
	return &LRU[V]{
		cap:     capacity,
		grid:    grid,
		entries: make(map[uint64]*list.Element, capacity),
		order:   list.New(),
	}
}

// cellOf quantises p to its grid cell, packed into one map key. The
// int32 fold keeps any finite point addressable (long-link targets
// overshoot the unit square).
func (c *LRU[V]) cellOf(p geom.Point) uint64 {
	cx := uint64(uint32(int32(math.Floor(p.X / c.grid))))
	cy := uint64(uint32(int32(math.Floor(p.Y / c.grid))))
	return cx<<32 | cy
}

// Lookup returns the value cached for p's cell, refreshing its recency.
func (c *LRU[V]) Lookup(p geom.Point) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[c.cellOf(p)]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Insert binds p's cell to v, evicting the least recently used cell at
// capacity.
func (c *LRU[V]) Insert(p geom.Point, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := c.cellOf(p)
	if el, ok := c.entries[cell]; ok {
		ent := el.Value.(*entry[V])
		ent.key, ent.val = p, v
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap && c.order.Len() > 0 {
		oldest := c.order.Back()
		delete(c.entries, oldest.Value.(*entry[V]).cell)
		c.order.Remove(oldest)
	}
	c.entries[cell] = c.order.PushFront(&entry[V]{cell: cell, key: p, val: v})
}

// DropIf removes every entry for which drop returns true and reports how
// many went. drop runs under the cache's lock and must not call back
// into it.
func (c *LRU[V]) DropIf(drop func(key geom.Point, v V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*entry[V]); drop(ent.key, ent.val) {
			delete(c.entries, ent.cell)
			c.order.Remove(el)
			removed++
		}
		el = next
	}
	return removed
}

// Clear empties the cache.
func (c *LRU[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[uint64]*list.Element, c.cap)
	c.order.Init()
}
