package node

import (
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
)

// TestCacheRefreshLoop drives a query through a refresher-enabled cluster
// to seed the origin's cache, then waits for the background loop to
// re-validate the hot entry: node_cache_refresh_total must advance and
// the entry must still name the region's true owner afterwards.
func TestCacheRefreshLoop(t *testing.T) {
	c := newClusterCfg(t, 16, 0.02, 31, func(cfg *Config) {
		cfg.RouteCacheSize = 32
		cfg.CacheRefreshInterval = 5 * time.Millisecond
		cfg.CacheRefreshBatch = 2
	})
	origin := c.nodes[1]
	key := geom.Pt(0.77, 0.31)

	var owner string
	if err := origin.Query(key, func(o proto.NodeInfo, _ int) { owner = o.Addr }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if owner == "" {
		t.Fatal("seed query unanswered")
	}
	if origin.cache.Len() == 0 {
		t.Fatal("seed query did not populate the cache")
	}

	// The refresher ticks on wall time; the bus delivers only on Drain.
	// Pump until the counter moves (bounded, so a broken loop fails fast).
	deadline := time.Now().Add(5 * time.Second)
	for origin.nm.cacheRefresh.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refresher never re-validated a cache entry")
		}
		time.Sleep(10 * time.Millisecond)
		c.bus.Drain()
	}

	if cached, ok := origin.cache.Lookup(key); !ok || cached.Addr != owner {
		t.Fatalf("after refresh: cached owner %q (present %v), want %q", cached.Addr, ok, owner)
	}

	// Leave stops the loop; the counter must go quiet.
	if err := origin.Leave(); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	quiesced := origin.nm.cacheRefresh.Value()
	time.Sleep(30 * time.Millisecond)
	c.bus.Drain()
	if v := origin.nm.cacheRefresh.Value(); v != quiesced {
		t.Fatalf("refresher still running after Leave: %d -> %d", quiesced, v)
	}
}
