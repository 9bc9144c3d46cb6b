package node

import (
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/stats"
	"voronet/internal/store"
	"voronet/internal/transport"
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
	// bus traffic of late joins, averaged over joins samples per size; it
	// must not grow with the overlay size.
	if testing.Short() {
		t.Skip("short mode")
	}
	const joins = 20
	c := newCluster(t, 40, 0.02, 78)
	cost := func() float64 {
		before := c.bus.DeliveredCount()
		for range joins {
			c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), 0.02)
		}
		return float64(c.bus.DeliveredCount()-before) / joins
	}
	costAt40 := cost()
	for len(c.nodes) < 160 {
		c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), 0.02)
	}
	costAt160 := cost()

	// Routing adds O(log^2 n) hops and maintenance O(1): a 4x size
	// increase may add a few hops per join, never multiply the cost.
	if costAt160 > 1.25*costAt40+5 {
		t.Fatalf("join cost grew from %.1f to %.1f messages", costAt40, costAt160)
	}
	t.Logf("join cost: %.1f messages at n=40, %.1f at n=160 (mean of %d joins)", costAt40, costAt160, joins)
}

func TestMessageLossDegradesGracefully(t *testing.T) {
	// Failure injection: drop a fraction of gossip traffic *after* the
	// overlay is built. Queries routed over surviving state must still
	// resolve (routing needs no acknowledgements), even though view
	// maintenance under loss is out of the paper's scope.
	c := newCluster(t, 40, 0.02, 79)
	c.bus.SetDefaultRule(transport.LinkRule{Drop: 0.1})
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

// sendsByKind sums every node's per-kind send counters, and under "all"
// the messages it put on the transport (node_sent_total less
// node_send_self_total).
func sendsByKind(nodes []*Node) map[string]uint64 {
	sum := map[string]uint64{}
	for _, nd := range nodes {
		s := nd.Metrics().Snapshot()
		sum["all"] += s.Counters["node_sent_total"] - s.Counters["node_send_self_total"]
		for k := range proto.KindCount {
			if name := k.String(); name != "" {
				sum[name] += s.Counters["node_send_"+name+"_total"]
			}
		}
	}
	return sum
}

// perEvent is the sends of one probe phase, by kind, divided by its
// events.
func perEvent(before, after map[string]uint64, events int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = float64(d) / float64(events)
		}
	}
	return out
}

// joinLeaveProbe builds n simnet peers by sequential Join (DMin 0.5/N,
// one long link, seed 5), then joins events more and makes them leave
// again in join order, each phase followed by a view check against the
// reference triangulation. It returns the messages per join and per leave, by kind
// and under "all".
func joinLeaveProbe(t *testing.T, n, events int) (join, leave map[string]float64) {
	t.Helper()
	dmin := 0.5 / float64(n)
	c := newCluster(t, n, dmin, 5)
	before := sendsByKind(c.nodes)
	for range events {
		c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), dmin)
	}
	join = perEvent(before, sendsByKind(c.nodes), events)
	c.checkViewsAgainstReference(t)

	before = sendsByKind(c.nodes)
	for _, nd := range c.nodes[n:] {
		if err := nd.Leave(); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
	}
	leave = perEvent(before, sendsByKind(c.nodes), events)
	c.checkViewsAgainstReference(t)
	return join, leave
}

// TestJoinMessageBudget holds a join to what AddVoronoiRegion needs
// (§4.2.1): the owner grants the joiner its view and tells each affected
// neighbour, and neighbour-list gossip only repairs. Leaves keep their
// whole-view announcements and are held to today's price.
func TestJoinMessageBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		events      = 20
		maxPerJoin  = 30
		maxNLJoin   = 15
		maxPerLeave = 42
	)
	nl := proto.KindNeighborList.String()
	for _, n := range []int{64, 256} {
		join, leave := joinLeaveProbe(t, n, events)
		t.Logf("N = %d: per join %.1f msgs (%s %.1f, %s %.1f, %s %.1f); per leave %.1f msgs (%s %.1f)",
			n, join["all"], nl, join[nl],
			proto.KindSetNeighbors, join[proto.KindSetNeighbors.String()],
			proto.KindJoinGrant, join[proto.KindJoinGrant.String()],
			leave["all"], nl, leave[nl])
		if join["all"] > maxPerJoin || join[nl] > maxNLJoin {
			t.Errorf("N = %d: a join costs %.1f messages, %.1f of them %s; budget %d and %d",
				n, join["all"], join[nl], nl, maxPerJoin, maxNLJoin)
		}
		if leave["all"] > maxPerLeave {
			t.Errorf("N = %d: a leave costs %.1f messages, budget %d", n, leave["all"], maxPerLeave)
		}
	}
}
