package node

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/metrics"
	"voronet/internal/proto"
	"voronet/internal/store"
)

// tracedQuery runs one traced GET for a key nobody has written from the
// given node, drains the bus, and returns who answered, over how many
// hops and along which path. No replica holds the key, so the owner of
// its region answers. The cluster's effectively-infinite request timeout
// guarantees the callback fired during the drain or not at all.
func tracedQuery(t *testing.T, c *cluster, from *Node, p geom.Point) (proto.NodeInfo, int, []proto.TraceHop) {
	t.Helper()
	var (
		r     store.Reply
		fired bool
	)
	if err := from.getTrace(p, func(got store.Reply) { r, fired = got, true }); err != nil {
		t.Fatalf("getTrace: %v", err)
	}
	c.bus.Drain()
	if !fired {
		t.Fatalf("traced lookup of %v never answered", p)
	}
	if r.Err != nil && !errors.Is(r.Err, store.ErrNotFound) {
		t.Fatalf("traced lookup of %v: %v", p, r.Err)
	}
	return r.Owner, r.Hops, r.Path
}

// TestTracedQueryReturnsGreedyPath checks the trace contract on a live
// overlay: one hop per visited node (origin included), a terminal "owner"
// hop naming the answering node, intermediate rules drawn from the greedy
// candidate classes, and strictly decreasing distance to the target along
// the path — the definition of greedy routing.
func TestTracedQueryReturnsGreedyPath(t *testing.T) {
	c := newCluster(t, 50, 0.02, 11)
	posOf := map[string]geom.Point{}
	for _, nd := range c.nodes {
		posOf[nd.Info().Addr] = nd.Info().Pos
	}
	for i, target := range []geom.Point{geom.Pt(0.9, 0.9), geom.Pt(0.1, 0.8), geom.Pt(0.5, 0.05)} {
		from := c.nodes[i]
		owner, hops, path := tracedQuery(t, c, from, target)
		if len(path) != hops+1 {
			t.Fatalf("path has %d hops, want hops+1=%d (path %v)", len(path), hops+1, path)
		}
		if path[0].Addr != from.Info().Addr {
			t.Fatalf("path starts at %s, want origin %s", path[0].Addr, from.Info().Addr)
		}
		last := path[len(path)-1]
		if last.Rule != "owner" || last.Addr != owner.Addr {
			t.Fatalf("terminal hop %+v, want owner %s", last, owner.Addr)
		}
		for j, h := range path[:len(path)-1] {
			switch h.Rule {
			case "vn", "cn", "long":
			default:
				t.Fatalf("hop %d has rule %q, want vn/cn/long", j, h.Rule)
			}
		}
		for j := 1; j < len(path); j++ {
			prev, cur := posOf[path[j-1].Addr], posOf[path[j].Addr]
			if geom.Dist2(cur, target) >= geom.Dist2(prev, target) {
				t.Fatalf("hop %d (%s) did not move closer to %v: %v -> %v",
					j, path[j].Addr, target, prev, cur)
			}
		}
	}
}

// TestTracedStoreGetPath checks that a traced GET carries the routing
// trace back in the reply: the greedy walk from the origin, ending at the
// owner, which answered.
func TestTracedStoreGetPath(t *testing.T) {
	c := newCluster(t, 40, 0.02, 12)
	key := geom.Pt(0.77, 0.31)
	putDone := false
	if err := c.nodes[1].Put(key, []byte("traced"), func(r store.Reply) {
		if r.Err != nil {
			t.Errorf("put: %v", r.Err)
		}
		putDone = true
	}); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if !putDone {
		t.Fatal("put never acknowledged")
	}
	var got store.Reply
	fired := false
	if err := c.nodes[5].getTrace(key, func(r store.Reply) { got, fired = r, true }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if !fired {
		t.Fatal("traced get never answered")
	}
	if got.Err != nil || !got.Found {
		t.Fatalf("traced get: err=%v found=%v", got.Err, got.Found)
	}
	if string(got.Value) != "traced" {
		t.Fatalf("traced get value %q", got.Value)
	}
	if len(got.Path) == 0 {
		t.Fatal("traced get returned no path")
	}
	if last := got.Path[len(got.Path)-1]; last.Rule != "owner" {
		t.Fatalf("terminal hop rule %q, want owner", last.Rule)
	}
	// The path is the greedy walk from the origin to the owner.
	var want, addrs []string
	for _, nd := range c.walk(t, c.nodes[5], key) {
		want = append(want, nd.Info().Addr)
	}
	for _, h := range got.Path {
		addrs = append(addrs, h.Addr)
	}
	if !slices.Equal(addrs, want) {
		t.Fatalf("traced path %v, want the greedy walk %v", addrs, want)
	}
	// An untraced Get must not pay for a path.
	fired = false
	if err := c.nodes[5].Get(key, func(r store.Reply) { got, fired = r, true }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if !fired {
		t.Fatal("plain get never answered")
	}
	if got.Path != nil {
		t.Fatalf("untraced get carried a path: %v", got.Path)
	}
}

// runReplayWorkload builds a seeded cluster and drives a fixed workload
// (puts and gets, some traced) over the serial simnet. Everything
// that feeds it is derived from seed, so two calls with the same seed
// must take byte-identical routing decisions.
func runReplayWorkload(t *testing.T, seed int64) (*cluster, []string) {
	t.Helper()
	c := newCluster(t, 30, 0.02, seed)
	var traces []string
	for i := 0; i < 10; i++ {
		from := c.nodes[i%len(c.nodes)]
		p := geom.Pt(float64(i)*0.09+0.05, float64((i*7)%10)*0.09+0.05)
		_, _, path := tracedQuery(t, c, from, p)
		line := ""
		for _, h := range path {
			line += fmt.Sprintf("%s/%s ", h.Addr, h.Rule)
		}
		traces = append(traces, line)
		if err := from.Put(p, []byte{byte(i)}, func(store.Reply) {}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if err := c.nodes[(i+3)%len(c.nodes)].Get(p, func(store.Reply) {}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
	}
	return c, traces
}

// mergedSnapshot merges the bus books with every node's registry.
func mergedSnapshot(c *cluster) metrics.Snapshot {
	snap := c.bus.MetricsSnapshot()
	for _, nd := range c.nodes {
		snap.Merge(nd.Metrics().Snapshot())
	}
	return snap
}

// TestTraceDeterministicAcrossReplays replays the same seeded workload
// twice and requires the (addr, rule) hop sequences to be identical —
// the property that makes `voronet-node trace` reproducible in simnet.
func TestTraceDeterministicAcrossReplays(t *testing.T) {
	_, a := runReplayWorkload(t, 21)
	_, b := runReplayWorkload(t, 21)
	if len(a) != len(b) {
		t.Fatalf("replay produced %d traces vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace %d diverged:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestMetricsSnapshotDeterministicAcrossReplays replays the same seeded
// workload twice and compares the merged metric snapshots. Counters and
// value-deterministic histograms (hop counts) must match exactly; only
// wall-clock latency histograms may differ, and for those the observation
// counts must still agree.
func TestMetricsSnapshotDeterministicAcrossReplays(t *testing.T) {
	c1, _ := runReplayWorkload(t, 33)
	c2, _ := runReplayWorkload(t, 33)
	s1, s2 := mergedSnapshot(c1), mergedSnapshot(c2)

	if len(s1.Counters) != len(s2.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(s1.Counters), len(s2.Counters))
	}
	for name, v1 := range s1.Counters {
		if v2, ok := s2.Counters[name]; !ok || v1 != v2 {
			t.Errorf("counter %s: %d vs %d (present=%v)", name, v1, v2, ok)
		}
	}
	for name, h1 := range s1.Histograms {
		h2, ok := s2.Histograms[name]
		if !ok {
			t.Errorf("histogram %s missing from replay", name)
			continue
		}
		if h1.Count != h2.Count {
			t.Errorf("histogram %s count: %d vs %d", name, h1.Count, h2.Count)
		}
		if name == "node_query_hops" || name == "store_put_hops" || name == "store_get_hops" {
			for i := range h1.Buckets {
				if h1.Buckets[i] != h2.Buckets[i] {
					t.Errorf("histogram %s bucket %d: %d vs %d", name, i, h1.Buckets[i], h2.Buckets[i])
				}
			}
			if h1.Sum != h2.Sum {
				t.Errorf("histogram %s sum: %v vs %v", name, h1.Sum, h2.Sum)
			}
		}
	}
}

// TestNodeSendsReconcileWithBus checks message conservation on a healthy
// overlay: every message a node hands to its endpoint is accounted for by
// the bus, minus self-deliveries (which bypass the transport) and send
// errors (which never enter the bus books). The harness enforces the same
// invariant under fault plans; this pins it in the fault-free base case.
func TestNodeSendsReconcileWithBus(t *testing.T) {
	c, _ := runReplayWorkload(t, 44)
	snap := mergedSnapshot(c)
	sent := snap.Counters["node_sent_total"]
	self := snap.Counters["node_send_self_total"]
	errs := snap.Counters["node_send_errors_total"]
	if got, want := sent-self-errs, c.bus.SendCount(); got != want {
		t.Fatalf("node books %d (sent=%d self=%d errs=%d) vs bus sends %d",
			got, sent, self, errs, want)
	}
	if d, dr := c.bus.DeliveredCount(), c.bus.DroppedCount(); d+dr != c.bus.SendCount() {
		t.Fatalf("bus books do not balance: delivered=%d dropped=%d sends=%d", d, dr, c.bus.SendCount())
	}
	if dr := c.bus.DroppedCount(); dr != 0 {
		t.Fatalf("fault-free bus dropped %d messages", dr)
	}
	if to := snap.Counters["node_query_timeouts_total"]; to != 0 {
		t.Fatalf("workload recorded %d query timeouts", to)
	}
	if tr := snap.Counters["node_traced_routes_total"]; tr == 0 {
		t.Fatal("traced workload recorded no traced routes")
	}
}
