package node

import (
	"time"

	"voronet/internal/proto"
)

// Route-cache refresher: the cache (cache.go) repairs itself reactively —
// a stale entry loses the strictly-closer scan or is invalidated by view
// surgery — but the client that triggers the repair still pays the full
// greedy route for its read. With Config.CacheRefreshInterval set, a
// background loop re-queries the origin's hottest cached targets each
// interval; the answer travels the normal query path and re-populates (or
// corrects) the entry at the origin, so the keys a Zipf workload hammers
// stay one-hop fresh without a client ever eating the miss. Each
// re-validated entry counts in node_cache_refresh_total.
//
// The refresher holds no lock while querying (it rides the public Query
// path) and skips rounds while the node is not joined, so it is safe to
// start at construction and leave running until Leave or Shutdown stops
// it. A node that rejoins after Leave runs without the refresher — the
// cache restarts cold there anyway.

// startRefresher launches the refresh loop when the config asks for one.
// Called from newNode; idempotent per node.
func (n *Node) startRefresher() {
	if n.cache == nil || n.cfg.CacheRefreshInterval <= 0 {
		return
	}
	n.refreshStop = make(chan struct{})
	go n.refreshLoop()
}

// stopRefresher ends the refresh loop; safe to call multiple times and
// when no refresher runs.
func (n *Node) stopRefresher() {
	if n.refreshStop == nil {
		return
	}
	n.refreshOnce.Do(func() { close(n.refreshStop) })
}

func (n *Node) refreshLoop() {
	tick := time.NewTicker(n.cfg.CacheRefreshInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.refreshStop:
			return
		case <-tick.C:
			n.refreshCacheOnce()
		}
	}
}

// refreshCacheOnce re-queries up to Config.CacheRefreshBatch of the
// hottest cached targets. The answers flow through the regular
// KindQueryAnswer path, whose origin-side handler already inserts the
// answering node into the cache — the refresher needs no result plumbing
// of its own.
func (n *Node) refreshCacheOnce() {
	if !n.Joined() {
		return
	}
	batch := n.cfg.CacheRefreshBatch
	if batch <= 0 {
		batch = 4
	}
	for _, key := range n.cache.Hottest(batch) {
		if err := n.Query(key, func(proto.NodeInfo, int) {}); err != nil {
			return // not joined (raced a Leave): try again next tick
		}
		n.nm.cacheRefresh.Inc()
	}
}
