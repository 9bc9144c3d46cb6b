package node

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// recordEndpoint is a transport endpoint that delivers nothing and
// records every envelope sent through it, in order.
type recordEndpoint struct {
	addr string
	mu   sync.Mutex
	to   []string
	envs []*proto.Envelope
}

func (e *recordEndpoint) Addr() string                 { return e.addr }
func (e *recordEndpoint) SetHandler(transport.Handler) {}
func (e *recordEndpoint) Close() error                 { return nil }

func (e *recordEndpoint) Send(to string, payload []byte) error {
	env, err := proto.Decode(payload)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.to = append(e.to, to)
	e.envs = append(e.envs, env)
	return nil
}

// scanNextHop is the greedy step as handleRoute wrote it before the
// route view: one pass over vn, cn and the long links, one tombstone
// lookup per candidate. It is the reference the view's pick must
// reproduce, candidate and class alike.
func scanNextHop(n *Node, target geom.Point, skip func(proto.NodeInfo) bool) (proto.NodeInfo, string) {
	nb := n.view.Load()
	best := n.self
	bestD := geom.Dist2(n.self.Pos, target)
	bestRule := "owner"
	consider := func(c proto.NodeInfo, class string) {
		if c.Addr == "" || c.Addr == n.self.Addr || (skip != nil && skip(c)) || nb.tombs.dead(c) {
			return
		}
		d := geom.Dist2(c.Pos, target)
		if d < bestD || (d == bestD && best.Addr != n.self.Addr && c.Addr < best.Addr) {
			best, bestD = c, d
			bestRule = class
		}
	}
	for _, v := range nb.vn {
		consider(v, "vn")
	}
	for _, c := range nb.cn {
		consider(c, "cn")
	}
	for _, l := range nb.longNbrs {
		consider(l, "long")
	}
	return best, bestRule
}

// TestRoutePickMatchesScan property-tests the route view's pick against
// the per-hop scan it replaced, through NextHop and through handleRoute's
// forwarded (or answered) envelope and its trace rule, on random views
// built to collide: positions on a coarse grid (equal distances, also to
// self), one address in several classes, self-address and empty long
// slots, tombstones older and newer than the entries they shadow, the
// join exclusion and a NaN target.
func TestRoutePickMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := []string{"a", "b", "c", "d", "f", "g", "h"} // self is "e"
	grid := func() float64 { return float64(rng.Intn(5)) / 4 }
	randInfo := func(addr string) proto.NodeInfo {
		return proto.NodeInfo{Addr: addr, Pos: geom.Pt(grid(), grid()), Gen: uint64(rng.Intn(3))}
	}
	var forwarded, owned, joins int
	for iter := 0; iter < 3000; iter++ {
		ep := &recordEndpoint{addr: "e"}
		n := New(ep, geom.Pt(grid(), grid()), Config{DMin: 0.05, RequestTimeout: time.Hour})

		// pool is sorted, so vn and cn are built in address order.
		nb := n.lock()
		nb.joined = true
		var known []proto.NodeInfo
		for _, a := range pool {
			if rng.Intn(2) == 0 {
				c := randInfo(a)
				nb.vn = append(nb.vn, c)
				known = append(known, c)
			}
		}
		nb.twoHop = make([][]proto.NodeInfo, len(nb.vn))
		for _, a := range pool {
			switch rng.Intn(4) {
			case 0:
				if i, ok := find(nb.vn, a); ok {
					nb.cn = append(nb.cn, nb.vn[i]) // the same entry in two classes
				}
			case 1:
				c := randInfo(a)
				nb.cn = append(nb.cn, c)
				known = append(known, c)
			}
		}
		for j := rng.Intn(4); j > 0; j-- {
			switch k := rng.Intn(4); {
			case k == 0:
				nb.longNbrs = append(nb.longNbrs, proto.NodeInfo{})
			case k == 1:
				nb.longNbrs = append(nb.longNbrs, n.self)
			case k == 2 && len(known) > 0:
				nb.longNbrs = append(nb.longNbrs, known[rng.Intn(len(known))])
			default:
				nb.longNbrs = append(nb.longNbrs, randInfo(pool[rng.Intn(len(pool))]))
			}
		}
		nb.tombs = &tombstones{gen: map[string]uint64{}}
		for _, a := range pool {
			if rng.Intn(4) == 0 {
				nb.tombs.gen[a] = uint64(rng.Intn(3))
			}
		}
		n.unlock(nb)

		target := geom.Pt(grid(), grid())
		switch rng.Intn(10) {
		case 0:
			target = n.self.Pos
		case 1:
			target = geom.Pt(math.NaN(), 0.5)
		case 2:
			target = geom.Pt(grid()+0.125, grid()-0.125)
		}
		purpose, origin := proto.PurposeQuery, proto.NodeInfo{Addr: "origin", Pos: geom.Pt(0.5, 0.5)}
		var skip func(proto.NodeInfo) bool
		if rng.Intn(4) == 0 {
			joins++
			purpose, origin = proto.PurposeJoin, randInfo(pool[rng.Intn(len(pool))])
			skip = func(c proto.NodeInfo) bool { return c.Addr == origin.Addr }
		}

		// NextHop against the scan, with and without a veto.
		want, wantRule := scanNextHop(n, target, skip)
		got, fwd := n.NextHop(target, skip)
		if fwd != (wantRule != "owner") || (fwd && got != want) {
			t.Fatalf("iter %d: NextHop = %+v,%v, scan = %+v,%s", iter, got, fwd, want, wantRule)
		}
		veto := func(c proto.NodeInfo) bool { return c.Addr < "c" || c.Addr == "e" } // self is never vetoed
		want, wantRule = scanNextHop(n, target, veto)
		if got, fwd = n.NextHop(target, veto); fwd != (wantRule != "owner") || (fwd && got != want) {
			t.Fatalf("iter %d: vetoed NextHop = %+v,%v, scan = %+v,%s", iter, got, fwd, want, wantRule)
		}

		// The hop itself: what it forwards, to whom, under which rule.
		want, wantRule = scanNextHop(n, target, skip)
		n.handleRoute(&proto.Envelope{
			Type: proto.KindRoute, Purpose: purpose, Target: target, Origin: origin, Trace: true,
		})
		if len(ep.envs) == 0 {
			t.Fatalf("iter %d: the hop sent nothing (scan: %+v,%s)", iter, want, wantRule)
		}
		sent, to := ep.envs[0], ep.to[0]
		switch {
		case wantRule != "owner":
			forwarded++
			if sent.Type != proto.KindRoute || to != want.Addr {
				t.Fatalf("iter %d: hop sent %v to %s, scan forwards to %+v (%s)", iter, sent.Type, to, want, wantRule)
			}
			if last := sent.Path[len(sent.Path)-1]; last.Rule != wantRule || last.Addr != "e" {
				t.Fatalf("iter %d: traced hop %+v, scan rule %s", iter, last, wantRule)
			}
		case purpose == proto.PurposeJoin:
			owned++
			if sent.Type != proto.KindJoinGrant || to != origin.Addr {
				t.Fatalf("iter %d: owner sent %v to %s, want the join grant to %s", iter, sent.Type, to, origin.Addr)
			}
		default:
			owned++
			if sent.Type != proto.KindQueryAnswer || to != "origin" || sent.Path[len(sent.Path)-1].Rule != "owner" {
				t.Fatalf("iter %d: owner sent %v to %s path %+v, want an answer to origin", iter, sent.Type, to, sent.Path)
			}
		}
	}
	if forwarded < 500 || owned < 300 || joins < 300 {
		t.Fatalf("weak coverage: %d forwarded, %d owned, %d joins", forwarded, owned, joins)
	}
}

// viewsCurrent fails unless every node's published neighbourhood is
// whole: vn and cn sorted by address, without duplicates and without a
// tombstoned incarnation, one two-hop slot per vn member, and a route
// view equal to one freshly derived from the value's own fields (nil for
// a node that is not joined).
func viewsCurrent(t *testing.T, when string, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		nb := n.view.Load()
		for class, list := range map[string][]proto.NodeInfo{"vn": nb.vn, "cn": nb.cn} {
			for i, c := range list {
				if i > 0 && list[i-1].Addr >= c.Addr {
					t.Fatalf("%s: %s's %s is not sorted and unique: %v", when, n.Info().Addr, class, list)
				}
				if nb.tombs.dead(c) {
					t.Fatalf("%s: %s's %s holds tombstoned %+v", when, n.Info().Addr, class, c)
				}
			}
		}
		if len(nb.twoHop) != len(nb.vn) {
			t.Fatalf("%s: %s holds %d two-hop lists for %d Voronoi neighbours", when, n.Info().Addr, len(nb.twoHop), len(nb.vn))
		}
		got, want := nb.route, (*routeView)(nil)
		if nb.joined {
			want = nb.deriveRoute(n.self)
		}
		if (got == nil) != (want == nil) || (got != nil && !slices.Equal(*got, *want)) {
			t.Fatalf("%s: %s publishes a stale view:\n got  %v\n want %v", when, n.Info().Addr, got, want)
		}
	}
}

// TestRouteViewAlwaysCurrent drives a durable cluster through joins,
// graceful leaves, crashes reported to some survivors (the rest learn by
// tombstone gossip), long-link grants and updates and a durable restart
// at a higher generation, and requires every node's published view to
// equal a fresh build after every drain.
func TestRouteViewAlwaysCurrent(t *testing.T) {
	c, _ := newDurableCluster(t, 12, 35, nil)
	var all []*Node
	track := func() { all = append(all, c.nodes[len(c.nodes)-1]) }
	all = append(all, c.nodes...)
	viewsCurrent(t, "after the build", all)
	rng := rand.New(rand.NewSource(35))
	for round := 0; round < 6; round++ {
		c.addNode(t, geom.Pt(rng.Float64(), rng.Float64()), 0.02)
		track()
		viewsCurrent(t, fmt.Sprintf("round %d join", round), all)

		idx := 1 + rng.Intn(len(c.nodes)-1)
		victim := c.nodes[idx]
		c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
		if round%2 == 0 {
			if err := victim.Leave(); err != nil {
				t.Fatal(err)
			}
			c.bus.Drain()
			viewsCurrent(t, fmt.Sprintf("round %d leave", round), all)
			continue
		}
		// Crash: half the survivors are told, the rest hear by gossip.
		victim.ep.Close()
		gone := victim.Info()
		for k, nd := range c.nodes {
			if k%2 == 0 {
				nd.NotifyDeparted(gone.Addr)
			}
		}
		c.bus.Drain()
		viewsCurrent(t, fmt.Sprintf("round %d crash", round), all)
		if round != 3 {
			continue
		}
		// Durable restart at the same address, one generation up.
		ep, err := c.bus.Attach(gone.Addr)
		if err != nil {
			t.Fatal(err)
		}
		nd2, _, err := NewDurable(ep, gone.Pos, victim.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if nd2.Info().Gen <= gone.Gen {
			t.Fatalf("restart at generation %d, the dead incarnation had %d", nd2.Info().Gen, gone.Gen)
		}
		if err := nd2.Join(c.nodes[0].Info().Addr); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
		if !nd2.Joined() {
			t.Fatal("restarted node failed to rejoin")
		}
		c.nodes = append(c.nodes, nd2)
		track()
		viewsCurrent(t, fmt.Sprintf("round %d restart", round), all)
	}
	var grants, updates uint64
	for _, nd := range all {
		grants += counter(nd, "node_recv_long_link_grant_total")
		updates += counter(nd, "node_recv_long_link_update_total")
	}
	if grants == 0 || updates == 0 {
		t.Fatalf("the run exercised %d long-link grants and %d updates; want both", grants, updates)
	}
}

// TestRouteForwardsWithoutViewLock holds a node's view lock for writing
// while the node forwards a query toward a close neighbour: the greedy
// step must not wait on the lock.
func TestRouteForwardsWithoutViewLock(t *testing.T) {
	ep := &recordEndpoint{addr: "s"}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, RequestTimeout: time.Hour})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	nbr := proto.NodeInfo{Addr: "t", Pos: geom.Pt(0.52, 0.5)}
	n.deliver(&proto.Envelope{Type: proto.KindCNAdd, From: nbr, CloseCand: []proto.NodeInfo{nbr}})

	n.mu.Lock()
	defer n.mu.Unlock()
	done := make(chan struct{})
	go func() {
		n.handleRoute(&proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeQuery, Target: nbr.Pos, Origin: n.self})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handleRoute blocked on the view lock")
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	last := len(ep.envs) - 1
	if last < 0 || ep.envs[last].Type != proto.KindRoute || ep.to[last] != nbr.Addr {
		t.Fatalf("the hop did not forward to %s: sent %v", nbr.Addr, ep.to)
	}
}

// TestReadersNeverWaitOnWriter holds a node's writer lock while every path
// that only reads the view runs: a GET it forwards, a GET it answers as
// owner, a GET it originates up to its callback, a join admission up to
// its grant, a replica push, an anti-entropy sweep, a message from a live
// sender and each public accessor. None may wait.
func TestReadersNeverWaitOnWriter(t *testing.T) {
	ep := &recordEndpoint{addr: "s"}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, Replication: 1, RequestTimeout: time.Hour})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// One Voronoi neighbour t whose own list is {s}: t owns keys near it
	// and s owns the rest.
	nbr := proto.NodeInfo{Addr: "t", Pos: geom.Pt(0.6, 0.5)}
	n.deliver(&proto.Envelope{Type: proto.KindSetNeighbors, From: nbr, Origin: nbr})
	n.deliver(&proto.Envelope{Type: proto.KindNeighborList, From: nbr, Neighbors: []proto.NodeInfo{n.self}})
	theirs, ours := geom.Pt(0.58, 0.5), geom.Pt(0.42, 0.5)
	n.kv.Apply(proto.StoreRecord{Key: ours, Value: []byte("v"), Version: 1})
	sent := func(kind proto.Kind, to string) bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		for i, env := range ep.envs {
			if env.Type == kind && ep.to[i] == to {
				return true
			}
		}
		return false
	}

	n.mu.Lock()
	held := true
	defer func() {
		if held {
			n.mu.Unlock()
		}
	}()
	within := func(what string, read func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { read(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s waited on the writer lock", what)
		}
	}
	origin := proto.NodeInfo{Addr: "o", Pos: geom.Pt(0.1, 0.1)}
	within("a forwarded GET", func() {
		n.deliver(&proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeStoreGet, Target: theirs, Origin: origin, From: origin, QueryID: 7})
	})
	if !sent(proto.KindRoute, nbr.Addr) {
		t.Fatal("the GET for t's key was not forwarded to t")
	}
	if sent(proto.KindStoreReply, origin.Addr) {
		t.Fatal("a non-owner answered the GET")
	}
	within("an owned GET", func() {
		n.deliver(&proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeStoreGet, Target: ours, Origin: origin, From: origin, QueryID: 8})
	})
	if !sent(proto.KindStoreReply, origin.Addr) {
		t.Fatal("the owner did not answer the GET")
	}
	// A GET of its own, answered by t: the reply's callback fires with
	// the lock still held.
	var got []store.Reply
	within("an originated GET", func() {
		if err := n.Get(theirs, func(r store.Reply) { got = append(got, r) }); err != nil {
			t.Error(err)
		}
	})
	var id uint64
	ep.mu.Lock()
	for i, env := range ep.envs {
		if env.Type == proto.KindRoute && env.Origin.Addr == n.self.Addr && ep.to[i] == nbr.Addr {
			id = env.QueryID
		}
	}
	ep.mu.Unlock()
	if id == 0 {
		t.Fatal("the originated GET was not forwarded to t")
	}
	within("the originated GET's answer", func() {
		n.deliver(&proto.Envelope{Type: proto.KindStoreReply, From: nbr, QueryID: id, Found: true, Value: []byte("t"), Hops: 1})
	})
	if len(got) != 1 || got[0].Err != nil || string(got[0].Value) != "t" || got[0].Owner.Addr != nbr.Addr {
		t.Fatalf("the originated GET's callback saw %+v, want t's one answer", got)
	}
	within("a replica push", func() {
		n.deliver(&proto.Envelope{Type: proto.KindReplicaSync, From: nbr, Handoff: true,
			Records: []proto.StoreRecord{{Key: geom.Pt(0.3, 0.3), Value: []byte("w"), Version: 1}}})
	})
	if _, ok := n.StoreLookup(geom.Pt(0.3, 0.3)); !ok {
		t.Fatal("the pushed record was not applied")
	}
	within("SyncReplicas", func() { n.SyncReplicas() })
	within("a message from a live sender", func() {
		n.deliver(&proto.Envelope{Type: proto.KindQueryAnswer, From: nbr, QueryID: 99})
	})
	within("the accessors", func() {
		_, _, _, _, _, _ = n.Joined(), n.Neighbors(), n.CloseNeighbors(), n.LongNeighbors(), n.BackEntries(), n.LongTargets()
	})
	// A join admission reads the view, grants, and only then integrates
	// the joiner under the lock: the grant must leave while it is held.
	joiner := proto.NodeInfo{Addr: "j", Pos: geom.Pt(0.45, 0.5)}
	joined := make(chan struct{})
	go func() {
		n.deliver(&proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeJoin, Target: joiner.Pos, Origin: joiner, From: joiner})
		close(joined)
	}()
	for deadline := time.Now().Add(2 * time.Second); !sent(proto.KindJoinGrant, joiner.Addr); {
		if time.Now().After(deadline) {
			t.Fatal("the join admission waited on the writer lock before granting")
		}
		time.Sleep(time.Millisecond)
	}
	held = false
	n.mu.Unlock()
	<-joined
	if _, ok := find(n.Neighbors(), joiner.Addr); !ok {
		t.Fatalf("the admitted joiner is not a neighbour: %v", n.Neighbors())
	}
}

// TestStragglerAnswerKeepsTombstone delivers an answer from a dead
// incarnation — a straggler from generation 1 of an address tombstoned
// at generation 2 — and requires the origin to hand the answer to its
// caller without lifting the tombstone.
func TestStragglerAnswerKeepsTombstone(t *testing.T) {
	bus := transport.NewSeededBus(1)
	epO, err := bus.Attach("o")
	if err != nil {
		t.Fatal(err)
	}
	epX, err := bus.Attach("x")
	if err != nil {
		t.Fatal(err)
	}
	var routed []*proto.Envelope
	epX.SetHandler(func(_ string, payload []byte) {
		if env, err := proto.Decode(payload); err == nil && env.Type == proto.KindRoute {
			routed = append(routed, env)
		}
	})
	o := New(epO, geom.Pt(0.1, 0.1), Config{DMin: 0.05, RequestTimeout: time.Hour})
	if err := o.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	x1 := proto.NodeInfo{Addr: "x", Pos: geom.Pt(0.12, 0.1), Gen: 1}
	o.deliver(&proto.Envelope{Type: proto.KindCNAdd, From: x1, CloseCand: []proto.NodeInfo{x1}})

	var replies []store.Reply
	if err := o.Query(geom.Pt(0.13, 0.1), func(r store.Reply) { replies = append(replies, r) }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if len(routed) != 1 {
		t.Fatalf("x received %d routed queries, want 1", len(routed))
	}
	// x dies at generation 2 (gossip from a third peer), then its
	// generation-1 answer arrives.
	o.deliver(&proto.Envelope{Type: proto.KindCNAdd, From: proto.NodeInfo{Addr: "y"},
		Departed: []string{"x"}, DepartedGen: []uint64{2}})
	o.deliver(&proto.Envelope{Type: proto.KindQueryAnswer, From: x1, QueryID: routed[0].QueryID})
	if len(replies) != 1 || replies[0].Err != nil {
		t.Fatalf("replies = %+v, want the one answer", replies)
	}
	if !o.tombstoned("x") {
		t.Fatal("the straggler lifted x's tombstone")
	}
}

// TestRouteViewKeptWhenUnchanged: a write section that changes no
// candidate — a bare lock and unlock, a back entry registered, a close
// neighbour offered again — republishes nothing, so the published view
// keeps its pointer; one that does change a candidate publishes a fresh
// view and leaves the old one as it was.
func TestRouteViewKeptWhenUnchanged(t *testing.T) {
	ep := &recordEndpoint{addr: "s"}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, RequestTimeout: time.Hour})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	nbr := proto.NodeInfo{Addr: "t", Pos: geom.Pt(0.52, 0.5)}
	n.deliver(&proto.Envelope{Type: proto.KindCNAdd, From: nbr, CloseCand: []proto.NodeInfo{nbr}})
	v := n.view.Load().route
	was := slices.Clone(*v)
	for _, write := range []func(){
		func() { n.unlock(n.lock()) },
		func() {
			n.deliver(&proto.Envelope{Type: proto.KindBackTransfer, From: nbr,
				Back: []proto.BackEntry{{Origin: nbr, Link: 0, Target: geom.Pt(0.5, 0.51)}}})
		},
		func() { n.deliver(&proto.Envelope{Type: proto.KindCNAdd, From: nbr, CloseCand: []proto.NodeInfo{nbr}}) },
	} {
		write()
		if got := n.view.Load().route; got != v {
			t.Fatalf("an unchanged view was republished: %v -> %v", *v, *got)
		}
	}
	n.deliver(&proto.Envelope{Type: proto.KindLeave, From: nbr})
	if got := n.view.Load().route; got == v || len(*got) != 1 {
		t.Fatalf("dropping the close neighbour published %v", *got)
	}
	if !slices.Equal(*v, was) {
		t.Fatalf("the old view was written after it was replaced: %v, was %v", *v, was)
	}
}

// TestBackEntryKeptOncePerLink: a link's origin can re-route it while the
// old holder's hand-over of the same entry is still in flight, so the new
// holder gets the routed registration and the transfer, in either order.
// It keeps one entry per (origin, link), the latest one; another link of
// the same origin is another entry.
func TestBackEntryKeptOncePerLink(t *testing.T) {
	ep := &recordEndpoint{addr: "s"}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, RequestTimeout: time.Hour})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	o := proto.NodeInfo{Addr: "o", Pos: geom.Pt(0.9, 0.9)}
	tgt := geom.Pt(0.48, 0.5)
	n.deliver(&proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeLongLink, Target: tgt, Origin: o, Link: 0, From: o})
	o2 := o
	o2.Gen = 2
	for _, env := range []*proto.Envelope{
		{Type: proto.KindBackTransfer, From: proto.NodeInfo{Addr: "h"}, Back: []proto.BackEntry{{Origin: o, Link: 0, Target: tgt}}},
		{Type: proto.KindBackTransfer, From: proto.NodeInfo{Addr: "h"}, Back: []proto.BackEntry{{Origin: o2, Link: 0, Target: tgt}, {Origin: o, Link: 1, Target: tgt}}},
	} {
		n.deliver(env)
	}
	var got []proto.BackEntry
	for _, ref := range n.BackEntries() {
		if ref.Origin.Addr == o.Addr {
			got = append(got, ref)
		}
	}
	want := []proto.BackEntry{{Origin: o2, Link: 0, Target: tgt}, {Origin: o, Link: 1, Target: tgt}}
	if !slices.Equal(got, want) {
		t.Fatalf("back entries of %s: %+v, want %+v", o.Addr, got, want)
	}
}
