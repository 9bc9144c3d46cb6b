package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/store"
)

// lookupStackCluster builds a cluster whose nodes run with the
// hot-region route cache.
func lookupStackCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	return newClusterCfg(t, n, 0.02, seed, func(cfg *Config) {
		cfg.RouteCacheSize = 64
	})
}

// TestCacheCoherenceUnderChurn is the cache-invalidation property suite:
// two clusters replay one identical seeded script of joins, leaves,
// crashes, puts, deletes and reads — one cluster with the route cache,
// one without. Every
// reply must be identical between the two: any stale cache entry surviving
// a view change would surface as a divergent owner, value, or found bit.
func TestCacheCoherenceUnderChurn(t *testing.T) {
	const (
		seed    = 77
		initial = 24
		rounds  = 8
		opsPer  = 20
	)
	tuned := lookupStackCluster(t, initial, seed)
	plain := newClusterCfg(t, initial, 0.02, seed, nil)

	// One script rng per cluster, identically seeded: the clusters consume
	// draws in lockstep, so the op sequences are the same.
	run := func(c *cluster, script *rand.Rand) []string {
		var log []string
		keys := make([]geom.Point, 0, rounds*opsPer)
		for round := 0; round < rounds; round++ {
			// Churn first: one join, and alternately a graceful leave or a
			// crash of a random non-bootstrap node.
			c.addNode(t, geom.Pt(script.Float64(), script.Float64()), 0.02)
			if len(c.nodes) > 4 {
				idx := 1 + script.Intn(len(c.nodes)-1)
				victim := c.nodes[idx]
				if round%2 == 0 {
					if err := victim.Leave(); err != nil {
						t.Fatalf("round %d leave: %v", round, err)
					}
				} else {
					victim.ep.Close() // crash: no protocol, links die
					gone := victim.Info().Addr
					for i, nd := range c.nodes {
						if i != idx {
							nd.NotifyDeparted(gone)
						}
					}
				}
				c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
				c.bus.Drain()
			}
			// Then a burst of store traffic. Reads deliberately revisit
			// earlier keys: those are the ones whose cached owners the
			// churn above may have invalidated.
			for op := 0; op < opsPer; op++ {
				origin := c.nodes[script.Intn(len(c.nodes))]
				switch {
				case op%4 == 0 || len(keys) == 0: // put a fresh key
					k := geom.Pt(script.Float64(), script.Float64())
					keys = append(keys, k)
					var r store.Reply
					if err := origin.Put(k, []byte(fmt.Sprintf("v%d-%d", round, op)), func(rep store.Reply) { r = rep }); err != nil {
						t.Fatalf("round %d put: %v", round, err)
					}
					c.bus.Drain()
					log = append(log, fmt.Sprintf("put %v found=%v err=%v", k, r.Found, r.Err))
				case op%7 == 0: // delete an old key
					k := keys[script.Intn(len(keys))]
					var r store.Reply
					if err := origin.Delete(k, func(rep store.Reply) { r = rep }); err != nil {
						t.Fatalf("round %d delete: %v", round, err)
					}
					c.bus.Drain()
					log = append(log, fmt.Sprintf("del %v found=%v err=%v", k, r.Found, r.Err))
				default: // read an old key
					k := keys[script.Intn(len(keys))]
					var r store.Reply
					if err := origin.Get(k, func(rep store.Reply) { r = rep }); err != nil {
						t.Fatalf("round %d get: %v", round, err)
					}
					c.bus.Drain()
					log = append(log, fmt.Sprintf("get %v found=%v val=%q err=%v", k, r.Found, r.Value, r.Err))
				}
			}
		}
		// Closing sweep: read every key from three distinct origins — any
		// cache entry still naming a departed or displaced owner would
		// answer wrongly here.
		for i, k := range keys {
			origin := c.nodes[(i*3+1)%len(c.nodes)]
			var r store.Reply
			if err := origin.Get(k, func(rep store.Reply) { r = rep }); err != nil {
				t.Fatalf("sweep get: %v", err)
			}
			c.bus.Drain()
			log = append(log, fmt.Sprintf("sweep %v found=%v val=%q err=%v", k, r.Found, r.Value, r.Err))
		}
		return log
	}

	tunedLog := run(tuned, rand.New(rand.NewSource(seed+1)))
	plainLog := run(plain, rand.New(rand.NewSource(seed+1)))
	if len(tunedLog) != len(plainLog) {
		t.Fatalf("op counts diverged: %d vs %d", len(tunedLog), len(plainLog))
	}
	for i := range tunedLog {
		if tunedLog[i] != plainLog[i] {
			t.Fatalf("op %d diverged:\n  tuned: %s\n  plain: %s", i, tunedLog[i], plainLog[i])
		}
	}

	// The suite must actually have exercised the cache and its coherence
	// paths, or the equality above proves nothing.
	var hits, invals uint64
	for _, nd := range tuned.nodes {
		snap := nd.Metrics().Snapshot()
		hits += snap.Counters["node_cache_hits_total"]
		invals += snap.Counters["node_cache_invalidations_total"]
	}
	if hits == 0 {
		t.Fatal("churn script produced no cache hits — property untested")
	}
	if invals == 0 {
		t.Fatal("churn script produced no cache invalidations — property untested")
	}
}

// TestCacheHitCollapsesHotRoute: after one read populates the origin's
// cache, a repeat read of the same key routes directly to the owner — at
// most one forwarding hop — where the cold read took a longer greedy walk.
func TestCacheHitCollapsesHotRoute(t *testing.T) {
	c := newClusterCfg(t, 40, 0.02, 91, func(cfg *Config) { cfg.RouteCacheSize = 32 })

	rng := rand.New(rand.NewSource(7))
	var hot geom.Point
	var origin *Node
	var coldHops int
	// Find a key whose cold route from some origin takes >= 2 hops, so the
	// collapse to 1 is observable. The PUT happens at a different node:
	// the putter's own ack caches the owner, the cold reader's cache is
	// genuinely empty for this region.
	for try := 0; try < 200; try++ {
		k := geom.Pt(rng.Float64(), rng.Float64())
		writer := c.nodes[rng.Intn(len(c.nodes))]
		org := c.nodes[rng.Intn(len(c.nodes))]
		if org == writer {
			continue
		}
		var ack store.Reply
		if err := writer.Put(k, []byte("hot"), func(rep store.Reply) { ack = rep }); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if ack.Err != nil || !ack.Found {
			t.Fatalf("seed put: %+v", ack)
		}
		var r store.Reply
		if err := org.Get(k, func(rep store.Reply) { r = rep }); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if r.Err != nil || !r.Found {
			t.Fatalf("cold get: %+v", r)
		}
		if r.Hops >= 2 {
			hot, origin, coldHops = k, org, r.Hops
			break
		}
	}
	if origin == nil {
		t.Skip("no multi-hop route found in this topology")
	}
	var r store.Reply
	if err := origin.Get(hot, func(rep store.Reply) { r = rep }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if r.Err != nil || !r.Found || !bytes.Equal(r.Value, []byte("hot")) {
		t.Fatalf("hot get: %+v", r)
	}
	if r.Hops > 1 {
		t.Fatalf("cached re-read took %d hops (cold took %d), want <= 1", r.Hops, coldHops)
	}
	snap := origin.Metrics().Snapshot()
	if snap.Counters["node_cache_hits_total"] == 0 {
		t.Fatal("hot read did not hit the cache")
	}
}
