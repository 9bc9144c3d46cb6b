package node

import (
	"fmt"
	"math/rand"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// TestCrashRepairViaNotifyDeparted crashes a third of the overlay without
// any leave protocol — endpoints close abruptly — and feeds the survivor
// set failure-detector notifications. Views, long links and back pointers
// must converge to the reference state of the surviving population.
func TestCrashRepairViaNotifyDeparted(t *testing.T) {
	c := newCluster(t, 45, 0.02, 11)

	var crashed []string
	for i := 0; i < 15; i++ {
		idx := 1 + c.rng.Intn(len(c.nodes)-1)
		nd := c.nodes[idx]
		nd.ep.Close() // abrupt: no Leave, records and links die with it
		crashed = append(crashed, nd.Info().Addr)
		c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	}
	for _, nd := range c.nodes {
		for _, gone := range crashed {
			nd.NotifyDeparted(gone)
		}
	}
	c.bus.Drain()

	c.checkViewsAgainstReference(t)

	live := map[string]*Node{}
	for _, nd := range c.nodes {
		live[nd.Info().Addr] = nd
	}
	for _, nd := range c.nodes {
		links := nd.LongNeighbors()
		targets := nd.LongTargets()
		for j, l := range links {
			if l.Addr == "" {
				t.Fatalf("%s link %d still unresolved after repair", nd.Info().Addr, j)
			}
			h, ok := live[l.Addr]
			if !ok {
				t.Fatalf("%s link %d points at crashed node %s", nd.Info().Addr, j, l.Addr)
			}
			for _, other := range c.nodes {
				if geom.Dist2(other.Info().Pos, targets[j]) < geom.Dist2(l.Pos, targets[j]) {
					t.Fatalf("%s link %d held by %s but %s is closer", nd.Info().Addr, j, l.Addr, other.Info().Addr)
				}
			}
			found := false
			for _, ref := range h.BackEntries() {
				if ref.Origin.Addr == nd.Info().Addr && ref.Link == j {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s link %d not mirrored at %s after repair", nd.Info().Addr, j, l.Addr)
			}
		}
		// No back entry may reference a crashed origin.
		for _, ref := range nd.BackEntries() {
			if _, ok := live[ref.Origin.Addr]; !ok {
				t.Fatalf("%s holds back entry for crashed origin %s", nd.Info().Addr, ref.Origin.Addr)
			}
		}
	}
}

// TestRouteRetriesAroundCrashedPeer crashes a node silently (no failure
// detector) and requires greedy routing to repair around it on the fly:
// the failed transport send tombstones the peer and the route retries.
func TestRouteRetriesAroundCrashedPeer(t *testing.T) {
	c := newCluster(t, 30, 0.02, 12)

	// Crash a node nobody is told about.
	idx := 1 + c.rng.Intn(len(c.nodes)-1)
	dead := c.nodes[idx]
	deadInfo := dead.Info()
	dead.ep.Close()
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)

	// Query points in the dead node's old region: greedy paths will try to
	// forward into it and must route around.
	answered := 0
	for q := 0; q < 25; q++ {
		jit := geom.Pt(deadInfo.Pos.X+0.01*(c.rng.Float64()-0.5), deadInfo.Pos.Y+0.01*(c.rng.Float64()-0.5))
		from := c.nodes[c.rng.Intn(len(c.nodes))]
		var got proto.NodeInfo
		ok := false
		if err := from.Query(jit, func(r store.Reply) {
			got = r.Owner
			ok = r.Err == nil
		}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if !ok {
			continue
		}
		answered++
		if got.Addr == deadInfo.Addr {
			t.Fatalf("query answered by crashed node %s", deadInfo.Addr)
		}
		best := c.nodes[0].Info()
		for _, nd := range c.nodes {
			if geom.Dist2(nd.Info().Pos, jit) < geom.Dist2(best.Pos, jit) {
				best = nd.Info()
			}
		}
		if got.Addr != best.Addr && geom.Dist2(got.Pos, jit) != geom.Dist2(best.Pos, jit) {
			t.Fatalf("query %v answered by %s, owner is %s", jit, got.Addr, best.Addr)
		}
	}
	if answered < 20 {
		t.Fatalf("only %d/25 queries answered around a crashed peer", answered)
	}
}

// TestConcurrentLeavesDoNotStrandRecords pins the adversarial handoff
// race: with replication 1, a key whose owner and sole replica are two
// adjacent nodes has every copy on them. Both leave concurrently (each
// issues Leave before the other's messages deliver), so the owner's
// handoff lands on a node that has itself already left. The farewell
// re-delegation chain must carry the record to a survivor — the key may
// not be lost — and the drain must terminate (no farewell ping-pong
// between the two departed endpoints, which stay open).
func TestConcurrentLeavesDoNotStrandRecords(t *testing.T) {
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(13))
	var nodes []*Node
	mk := func(pos geom.Point) *Node {
		addr := fmt.Sprintf("n%03d", len(nodes))
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		nd := New(ep, pos, Config{DMin: 0.02, LongLinks: 1, Seed: int64(len(nodes)), Replication: 1})
		if len(nodes) == 0 {
			if err := nd.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nd.Join(nodes[rng.Intn(len(nodes))].Info().Addr); err != nil {
				t.Fatal(err)
			}
			bus.Drain()
			if !nd.Joined() {
				t.Fatalf("%s failed to join", addr)
			}
		}
		nodes = append(nodes, nd)
		return nd
	}
	for i := 0; i < 12; i++ {
		mk(geom.Pt(rng.Float64(), rng.Float64()))
	}

	// Find an adjacent pair (a, b) and a key owned by a whose sole
	// replica is b: a point near their midpoint, nudged toward a.
	var a, b *Node
	var key geom.Point
search:
	for _, nd := range nodes[1:] {
		for _, v := range nd.Neighbors() {
			var other *Node
			for _, o := range nodes[1:] {
				if o.Info().Addr == v.Addr {
					other = o
				}
			}
			if other == nil {
				continue
			}
			pa, pb := nd.Info().Pos, other.Info().Pos
			k := geom.Pt(pa.X+(pb.X-pa.X)*0.45, pa.Y+(pb.Y-pa.Y)*0.45)
			// The key must be owned by nd with `other` next closest
			// globally, so with R=1 both copies sit on the pair.
			dn, do := geom.Dist2(pa, k), geom.Dist2(pb, k)
			ok := dn < do
			for _, x := range nodes {
				if x != nd && x != other && geom.Dist2(x.Info().Pos, k) < do {
					ok = false
				}
			}
			if ok {
				a, b, key = nd, other, k
				break search
			}
		}
	}
	if a == nil {
		t.Fatal("no suitable adjacent pair found")
	}

	done := false
	if err := a.Put(key, []byte("survivor"), func(store.Reply) { done = true }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if !done {
		t.Fatal("put unacknowledged")
	}
	holders := 0
	for _, nd := range nodes {
		if _, ok := nd.StoreLookup(key); ok {
			holders++
			if nd != a && nd != b {
				t.Fatalf("setup broken: %s holds the key", nd.Info().Addr)
			}
		}
	}
	if holders != 2 {
		t.Fatalf("setup broken: %d holders, want exactly the pair", holders)
	}

	// Both leave before either's messages deliver; endpoints stay open.
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := b.Leave(); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	var live []*Node
	for _, nd := range nodes {
		if nd != a && nd != b {
			live = append(live, nd)
		}
	}
	for round := 0; round < 2; round++ {
		for _, nd := range live {
			nd.SyncReplicas()
		}
		bus.Drain()
	}

	var got []byte
	found := false
	if err := live[0].Get(key, func(r store.Reply) { got, found = r.Value, r.Found }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if !found {
		t.Fatal("key lost: the crossed handoff stranded it on a departed node")
	}
	if string(got) != "survivor" {
		t.Fatalf("got %q, want %q", got, "survivor")
	}
}
