package node

import (
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/store"
)

// TestCrashedOriginReplyCountsAndRepairs: an origin that crashes between
// dispatching a store op and the owner's reply must not vanish silently —
// the failed reply send is counted in node_send_errors_total and triggers
// the same departure repair a failed forward does, so the crashed origin
// is tombstoned out of the answerer's views.
func TestCrashedOriginReplyCountsAndRepairs(t *testing.T) {
	// The shared cluster's infinite RequestTimeout is what this test
	// needs: the crashed origin's inflight timer would otherwise fire
	// asynchronously after the test completes.
	c := newCluster(t, 16, 0.02, 41)

	// Pick an origin and a key it does not own, so the reply really has
	// to travel back over the transport; owner is the node that will have
	// to deliver that reply.
	var origin, owner *Node
	var key geom.Point
	rng := c.rng
	for try := 0; try < 100; try++ {
		k := geom.Pt(rng.Float64(), rng.Float64())
		org := c.nodes[1+rng.Intn(len(c.nodes)-1)]
		best, bestD := org, geom.Dist2(org.Info().Pos, k)
		for _, nd := range c.nodes {
			if d := geom.Dist2(nd.Info().Pos, k); d < bestD {
				best, bestD = nd, d
			}
		}
		if best != org {
			origin, owner, key = org, best, k
			break
		}
	}
	if origin == nil {
		t.Fatal("no suitable origin found")
	}

	// Dispatch the PUT (enqueues the routed envelope on the bus), then
	// crash the origin before anything is delivered: the owner will apply
	// the write and fail to acknowledge it.
	if err := origin.Put(key, []byte("doomed"), func(r store.Reply) {
		if r.Err == nil {
			t.Error("ack delivered to a crashed origin")
		}
	}); err != nil {
		t.Fatal(err)
	}
	gone := origin.Info().Addr
	origin.ep.Close()
	for i, nd := range c.nodes {
		if nd == origin {
			c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
			break
		}
	}
	c.bus.Drain()

	var sendErrs uint64
	for _, nd := range c.nodes {
		sendErrs += nd.Metrics().Snapshot().Counters["node_send_errors_total"]
	}
	if sendErrs == 0 {
		t.Fatal("failed reply to crashed origin was not counted in node_send_errors_total")
	}
	// The answerer repaired around the crash: the origin is tombstoned at
	// the owner and gone from its view — a later route through the owner
	// can never pick the dead address again.
	c.bus.Drain()
	owner.mu.RLock()
	_, tombstoned := owner.tombs[gone]
	owner.mu.RUnlock()
	if !tombstoned {
		t.Fatalf("owner %s did not tombstone crashed origin %s after the failed reply",
			owner.Info().Addr, gone)
	}
	for _, v := range owner.Neighbors() {
		if v.Addr == gone {
			t.Fatalf("owner %s still lists crashed origin %s in vn after reply-failure repair",
				owner.Info().Addr, gone)
		}
	}
	// The write itself survived: the record is durable at its owner even
	// though the ack was undeliverable.
	reader := c.nodes[1]
	var r store.Reply
	if err := reader.Get(key, func(rep store.Reply) { r = rep }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if r.Err != nil || !r.Found || string(r.Value) != "doomed" {
		t.Fatalf("get after crashed-origin put: %+v", r)
	}
}

// TestQuerySecondsReconcilesWithInflightWindow is the regression test for
// the simnet bench inflation bug: when a driver keeps at most W queries in
// flight, the node_query_seconds histogram sum can never exceed W times
// the measured wall clock (each in-flight query accrues wall time at most
// 1x, and at most W accrue at once). The broken driver enqueued every op
// before one Drain, making sum ~= ops x drain-wall.
func TestQuerySecondsReconcilesWithInflightWindow(t *testing.T) {
	c := newCluster(t, 12, 0.02, 67)
	const ops, window = 160, 8

	rng := c.rng
	start := time.Now()
	for lo := 0; lo < ops; lo += window {
		for i := lo; i < lo+window && i < ops; i++ {
			origin := c.nodes[rng.Intn(len(c.nodes))]
			if err := origin.Query(geom.Pt(rng.Float64(), rng.Float64()), func(store.Reply) {}); err != nil {
				t.Fatal(err)
			}
		}
		c.bus.Drain()
	}
	wall := time.Since(start).Seconds()

	var sum float64
	var count uint64
	for _, nd := range c.nodes {
		h := nd.Metrics().Snapshot().Histograms["node_query_seconds"]
		sum += h.Sum
		count += h.Count
	}
	if count != ops {
		t.Fatalf("query_seconds count = %d, want %d", count, ops)
	}
	// 1.05 covers clock-read skew between the driver's wall measurement
	// and the per-query timers; the broken driver overshot this bound by
	// an ops/window factor (20x here), not 5%.
	if bound := wall * window * 1.05; sum > bound {
		t.Fatalf("query_seconds sum %.4fs exceeds wall x window bound %.4fs (wall %.4fs, window %d)",
			sum, bound, wall, window)
	}
}
