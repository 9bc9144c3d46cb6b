package node

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"voronet/internal/delaunay"
	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// cluster builds n nodes on an in-memory bus, joined one at a time through
// random sponsors, draining the bus between operations.
type cluster struct {
	bus   *transport.Bus
	nodes []*Node
	rng   *rand.Rand
	seq   int
	// cfgMut, when set before nodes are added, adjusts each node's config
	// (e.g. a WALDir per node, or a MaxInflight budget).
	cfgMut func(*Config)
}

func newCluster(t *testing.T, n int, dmin float64, seed int64) *cluster {
	t.Helper()
	return newClusterCfg(t, n, dmin, seed, nil)
}

func newClusterCfg(t *testing.T, n int, dmin float64, seed int64, cfgMut func(*Config)) *cluster {
	t.Helper()
	c := &cluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(seed)), cfgMut: cfgMut}
	for i := 0; i < n; i++ {
		pos := geom.Pt(c.rng.Float64(), c.rng.Float64())
		c.addNode(t, pos, dmin)
	}
	return c
}

func (c *cluster) addNode(t *testing.T, pos geom.Point, dmin float64) *Node {
	t.Helper()
	addr := fmt.Sprintf("n%03d", c.seq)
	c.seq++
	ep, err := c.bus.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Replies either arrive during the synchronous drain or are lost for
	// good; an effectively infinite request timeout keeps wall-clock
	// reaper and store-timeout timers (whose async callbacks would race
	// with test state) out of bus-driven tests — no test on this cluster
	// waits for a store.ErrTimeout. The reaper itself is tested in
	// query_leak_test.go.
	cfg := Config{DMin: dmin, LongLinks: 1, Seed: int64(c.seq),
		RequestTimeout: 365 * 24 * time.Hour}
	if c.cfgMut != nil {
		c.cfgMut(&cfg)
	}
	var nd *Node
	if cfg.WALDir != "" {
		var err error
		nd, _, err = NewDurable(ep, pos, cfg)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		nd = New(ep, pos, cfg)
	}
	if len(c.nodes) == 0 {
		if err := nd.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	} else {
		via := c.nodes[c.rng.Intn(len(c.nodes))].Info().Addr
		if err := nd.Join(via); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if !nd.Joined() {
			t.Fatalf("node %s failed to join", addr)
		}
	}
	c.nodes = append(c.nodes, nd)
	return nd
}

// walk is the greedy path from nd toward target by NextHop: nd first,
// the target's owner last.
func (c *cluster) walk(t *testing.T, nd *Node, target geom.Point) []*Node {
	t.Helper()
	byAddr := make(map[string]*Node, len(c.nodes))
	for _, m := range c.nodes {
		byAddr[m.Info().Addr] = m
	}
	p := []*Node{nd}
	for len(p) <= len(c.nodes) {
		next, fwd := p[len(p)-1].NextHop(target, nil)
		if !fwd {
			return p
		}
		p = append(p, byAddr[next.Addr])
	}
	t.Fatalf("the walk toward %v from %s does not end", target, nd.Info().Addr)
	return nil
}

// checkViewsAgainstReference rebuilds the ground-truth Delaunay
// triangulation of the live nodes and requires every node's vn to match it
// exactly.
func (c *cluster) checkViewsAgainstReference(t *testing.T) {
	t.Helper()
	tr := delaunay.New()
	byVert := map[delaunay.VertexID]string{}
	vertOf := map[string]delaunay.VertexID{}
	for _, nd := range c.nodes {
		if !nd.Joined() {
			continue
		}
		v, err := tr.Insert(nd.Info().Pos, delaunay.NoVertex)
		if err != nil {
			t.Fatalf("reference insert: %v", err)
		}
		byVert[v] = nd.Info().Addr
		vertOf[nd.Info().Addr] = v
	}
	for _, nd := range c.nodes {
		if !nd.Joined() {
			continue
		}
		var want []string
		for _, v := range tr.Neighbors(vertOf[nd.Info().Addr], nil) {
			want = append(want, byVert[v])
		}
		var got []string
		for _, v := range nd.Neighbors() {
			got = append(got, v.Addr)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("node %s: vn=%v, want %v", nd.Info().Addr, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %s: vn=%v, want %v", nd.Info().Addr, got, want)
			}
		}
	}
}

func TestTwoNodes(t *testing.T) {
	c := newCluster(t, 2, 0.05, 1)
	a, b := c.nodes[0], c.nodes[1]
	an := a.Neighbors()
	bn := b.Neighbors()
	if len(an) != 1 || an[0].Addr != b.Info().Addr {
		t.Fatalf("a's neighbours: %v", an)
	}
	if len(bn) != 1 || bn[0].Addr != a.Info().Addr {
		t.Fatalf("b's neighbours: %v", bn)
	}
}

func TestJoinViewsMatchReference(t *testing.T) {
	c := newCluster(t, 60, 0.02, 2)
	c.checkViewsAgainstReference(t)
}

func TestJoinViewsMatchReferenceLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := newCluster(t, 200, 0.02, 3)
	c.checkViewsAgainstReference(t)
}

func TestCloseNeighboursSymmetricAndComplete(t *testing.T) {
	// Large dmin so close neighbourhoods are non-trivial.
	dmin := 0.15
	c := newCluster(t, 50, dmin, 4)
	nonEmpty := 0
	for _, nd := range c.nodes {
		cn := nd.CloseNeighbors()
		if len(cn) > 0 {
			nonEmpty++
		}
		got := map[string]bool{}
		for _, e := range cn {
			got[e.Addr] = true
		}
		for _, other := range c.nodes {
			if other == nd {
				continue
			}
			want := geom.Dist(nd.Info().Pos, other.Info().Pos) <= dmin
			if want && !got[other.Info().Addr] {
				t.Fatalf("%s is missing close neighbour %s (d=%g)",
					nd.Info().Addr, other.Info().Addr, geom.Dist(nd.Info().Pos, other.Info().Pos))
			}
			if !want && got[other.Info().Addr] {
				t.Fatalf("%s has far close neighbour %s", nd.Info().Addr, other.Info().Addr)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("vacuous test: no close neighbourhoods")
	}
}

func TestLongLinksPointToOwner(t *testing.T) {
	c := newCluster(t, 50, 0.02, 5)
	for _, nd := range c.nodes {
		targets := nd.LongTargets()
		links := nd.LongNeighbors()
		if len(links) != len(targets) || len(links) == 0 {
			t.Fatalf("%s: %d links for %d targets", nd.Info().Addr, len(links), len(targets))
		}
		for j, tgt := range targets {
			// Ground truth owner: nearest node to the target.
			bestD := geom.Dist2(links[j].Pos, tgt)
			for _, other := range c.nodes {
				if d := geom.Dist2(other.Info().Pos, tgt); d < bestD {
					t.Fatalf("%s link %d: %s holds it, but %s is closer to %v",
						nd.Info().Addr, j, links[j].Addr, other.Info().Addr, tgt)
				}
			}
		}
	}
}

func TestBackEntriesMirrorLongLinks(t *testing.T) {
	c := newCluster(t, 40, 0.02, 6)
	holders := map[string]*Node{}
	for _, nd := range c.nodes {
		holders[nd.Info().Addr] = nd
	}
	for _, nd := range c.nodes {
		for j, l := range nd.LongNeighbors() {
			h := holders[l.Addr]
			found := false
			for _, ref := range h.BackEntries() {
				if ref.Origin.Addr == nd.Info().Addr && ref.Link == j {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s link %d not mirrored at %s", nd.Info().Addr, j, l.Addr)
			}
		}
	}
}

func TestLeaveRepairsViewsAndLinks(t *testing.T) {
	c := newCluster(t, 50, 0.02, 7)
	// Remove a third of the nodes (not the ones we check below).
	for i := 0; i < 16; i++ {
		idx := 1 + c.rng.Intn(len(c.nodes)-1)
		nd := c.nodes[idx]
		if !nd.Joined() {
			continue
		}
		if err := nd.Leave(); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
	}
	var live []*Node
	for _, nd := range c.nodes {
		if nd.Joined() {
			live = append(live, nd)
		}
	}
	c.nodes = live
	c.checkViewsAgainstReference(t)

	// Long links must point at live owners.
	addrs := map[string]bool{}
	for _, nd := range live {
		addrs[nd.Info().Addr] = true
	}
	for _, nd := range live {
		for j, l := range nd.LongNeighbors() {
			if l.Addr == "" {
				continue
			}
			if !addrs[l.Addr] {
				t.Fatalf("%s link %d points at departed node %s", nd.Info().Addr, j, l.Addr)
			}
			tgt := nd.LongTargets()[j]
			for _, other := range live {
				if geom.Dist2(other.Info().Pos, tgt) < geom.Dist2(l.Pos, tgt) {
					t.Fatalf("%s link %d held by %s but %s is closer", nd.Info().Addr, j, l.Addr, other.Info().Addr)
				}
			}
		}
	}
}

func TestQueryFindsOwner(t *testing.T) {
	c := newCluster(t, 60, 0.02, 8)
	for q := 0; q < 40; q++ {
		p := geom.Pt(c.rng.Float64(), c.rng.Float64())
		from := c.nodes[c.rng.Intn(len(c.nodes))]
		var got proto.NodeInfo
		gotHops := -1
		if err := from.Query(p, func(r store.Reply) {
			got = r.Owner
			gotHops = r.Hops
		}); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if gotHops < 0 {
			t.Fatal("query unanswered")
		}
		// Ground truth.
		best := c.nodes[0].Info()
		for _, nd := range c.nodes {
			if geom.Dist2(nd.Info().Pos, p) < geom.Dist2(best.Pos, p) {
				best = nd.Info()
			}
		}
		if got.Addr != best.Addr && geom.Dist2(got.Pos, p) != geom.Dist2(best.Pos, p) {
			t.Fatalf("query %v answered by %s, owner is %s", p, got.Addr, best.Addr)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	bus := transport.NewBus()
	ep, _ := bus.Attach("solo")
	nd := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.01})
	if err := nd.Leave(); err != ErrNotJoined {
		t.Fatalf("leave before join: %v", err)
	}
	if err := nd.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Bootstrap(); err != ErrAlreadyJoined {
		t.Fatalf("double bootstrap: %v", err)
	}
	if err := nd.Join("nowhere"); err != ErrAlreadyJoined {
		t.Fatalf("join after bootstrap: %v", err)
	}
}

func TestChurnSequence(t *testing.T) {
	// Interleave joins and leaves; views must track the reference at every
	// quiescent point.
	c := newCluster(t, 12, 0.05, 9)
	dmin := 0.05
	for step := 0; step < 40; step++ {
		if len(c.nodes) < 6 || c.rng.Float64() < 0.6 {
			c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), dmin)
		} else {
			idx := c.rng.Intn(len(c.nodes))
			nd := c.nodes[idx]
			if err := nd.Leave(); err != nil {
				t.Fatal(err)
			}
			c.bus.Drain()
			nd.ep.Close()
			c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
		}
		if step%8 == 0 {
			c.checkViewsAgainstReference(t)
		}
	}
	c.checkViewsAgainstReference(t)
}

func TestOverTCP(t *testing.T) {
	// A small real-sockets overlay: bootstrap + joins + a query.
	var nodes []*Node
	mk := func(pos geom.Point) *Node {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd := New(ep, pos, Config{DMin: 0.05, LongLinks: 1, Seed: int64(len(nodes))})
		nodes = append(nodes, nd)
		return nd
	}
	defer func() {
		for _, nd := range nodes {
			nd.ep.Close()
		}
	}()

	first := mk(geom.Pt(0.2, 0.2))
	if err := first.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	positions := []geom.Point{{X: 0.8, Y: 0.2}, {X: 0.5, Y: 0.8}, {X: 0.4, Y: 0.4}, {X: 0.7, Y: 0.6}}
	for _, p := range positions {
		nd := mk(p)
		if err := nd.Join(first.Info().Addr); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, nd.Joined)
	}
	// Quiesce: give maintenance traffic a moment, then check a query.
	time.Sleep(100 * time.Millisecond)

	target := geom.Pt(0.45, 0.45)
	done := make(chan store.Reply, 1)
	if err := nodes[1].Query(target, func(r store.Reply) {
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatalf("TCP query: %v", r.Err)
		}
		owner := r.Owner
		best := nodes[0].Info()
		for _, nd := range nodes {
			if geom.Dist2(nd.Info().Pos, target) < geom.Dist2(best.Pos, target) {
				best = nd.Info()
			}
		}
		if owner.Addr != best.Addr {
			t.Fatalf("TCP query answered by %s, want %s", owner.Addr, best.Addr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TCP query timed out")
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
