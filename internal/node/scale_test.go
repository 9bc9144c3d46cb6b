package node

import (
	"testing"

	"voronet/internal/geom"
	"voronet/internal/stats"
	"voronet/internal/store"
)

func TestDistributedQueryHopsArePolylog(t *testing.T) {
	// A medium distributed overlay: query hop counts must look like greedy
	// routing (small, bounded far below n), and every query must resolve
	// to the exact owner.
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 150
	c := newCluster(t, n, 0.02, 77)
	var hops stats.Running
	for q := 0; q < 120; q++ {
		p := geom.Pt(c.rng.Float64(), c.rng.Float64())
		from := c.nodes[c.rng.Intn(len(c.nodes))]
		answered := false
		if err := from.Query(p, func(r store.Reply) {
			owner := r.Owner
			answered = true
			hops.Add(float64(r.Hops))
			best := c.nodes[0].Info()
			for _, nd := range c.nodes {
				if geom.Dist2(nd.Info().Pos, p) < geom.Dist2(best.Pos, p) {
					best = nd.Info()
				}
			}
			if owner.Addr != best.Addr && geom.Dist2(owner.Pos, p) != geom.Dist2(best.Pos, p) {
				t.Errorf("query %v: owner %s, want %s", p, owner.Addr, best.Addr)
			}
		}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if !answered {
			t.Fatalf("query %d unanswered", q)
		}
	}
	if hops.Mean() > 12 {
		t.Fatalf("mean query hops %.1f implausibly high for n=%d", hops.Mean(), n)
	}
	t.Logf("distributed queries: mean %.2f hops, max %.0f over %d nodes", hops.Mean(), hops.Max(), n)
}

func TestJoinMessageCostIsConstant(t *testing.T) {
	// §4.2: AddVoronoiRegion costs O(|vn|) messages. Measure the marginal
	// bus traffic of late joins; it must not grow with the overlay size.
	if testing.Short() {
		t.Skip("short mode")
	}
	c := newCluster(t, 40, 0.02, 78)
	before := c.bus.DeliveredCount()
	c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), 0.02)
	costAt40 := c.bus.DeliveredCount() - before

	for len(c.nodes) < 160 {
		c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), 0.02)
	}
	before = c.bus.DeliveredCount()
	c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), 0.02)
	costAt160 := c.bus.DeliveredCount() - before

	// Routing adds O(log^2 n) and maintenance O(1); a 4x size increase must
	// not multiply the message cost (allow generous headroom for routing
	// growth and gossip variance).
	if costAt160 > 6*costAt40+60 {
		t.Fatalf("join cost grew from %d to %d messages", costAt40, costAt160)
	}
	t.Logf("join cost: %d messages at n=40, %d at n=160", costAt40, costAt160)
}

func TestMessageLossDegradesGracefully(t *testing.T) {
	// Failure injection: drop a fraction of gossip traffic *after* the
	// overlay is built. Queries routed over surviving state must still
	// resolve (routing needs no acknowledgements), even though view
	// maintenance under loss is out of the paper's scope.
	c := newCluster(t, 40, 0.02, 79)
	c.bus.DropRate = 0.1
	okCount := 0
	for q := 0; q < 30; q++ {
		p := geom.Pt(c.rng.Float64(), c.rng.Float64())
		from := c.nodes[c.rng.Intn(len(c.nodes))]
		if err := from.Query(p, func(r store.Reply) {
			if r.Err == nil {
				okCount++
			}
		}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
	}
	// With 10% loss some queries die in flight; most must survive.
	if okCount < 15 {
		t.Fatalf("only %d/30 queries survived 10%% message loss", okCount)
	}
	t.Logf("%d/30 queries answered under 10%% loss", okCount)
}
