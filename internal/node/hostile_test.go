package node

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
)

// TestNegativeLinkEnvelopeDoesNotPanic: a KindLongLinkGrant (or Update)
// carrying Link: -1 used to crash the node with an index-out-of-range
// panic at the longNbrs slice. The frame must be dropped at decode, and —
// defence in depth — the handlers must bounds-check even an envelope that
// somehow got past the decoder.
func TestNegativeLinkEnvelopeDoesNotPanic(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Attach("victim")
	if err != nil {
		t.Fatal(err)
	}
	n := New(ep, geom.Pt(0.5, 0.5), Config{DMin: 0.05, LongLinks: 2, Seed: 1})
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	hostile := []*proto.Envelope{
		{Type: proto.KindLongLinkGrant, From: proto.NodeInfo{Addr: "evil", Pos: geom.Pt(0.1, 0.1)}, Link: -1},
		{Type: proto.KindLongLinkUpdate, From: proto.NodeInfo{Addr: "evil"}, Granter: proto.NodeInfo{Addr: "evil2"}, Link: -1},
		{Type: proto.KindLongLinkGrant, From: proto.NodeInfo{Addr: "evil"}, Link: 1 << 30},
		{Type: proto.KindRoute, Purpose: proto.PurposeQuery, Target: geom.Pt(0.2, 0.2),
			Origin: proto.NodeInfo{Addr: "evil", Pos: geom.Pt(0.1, 0.1)}, Hops: -7},
	}
	for _, env := range hostile {
		// The wire path: the encoder zigzags the negative fields onto the
		// wire as they are — the bytes a malicious peer would send —
		// Decode's validation rejects them, the frame is dropped.
		n.handle("evil", proto.AppendEncode(nil, env))
		// The defence-in-depth path: inject the decoded envelope past the
		// wire validation straight into the dispatcher; the in-handler
		// bounds checks must hold on their own.
		n.deliver(env)
	}
	bus.Drain()

	// The node survived and its long-link state is intact.
	for j, l := range n.LongNeighbors() {
		if l.Addr != n.Info().Addr {
			t.Fatalf("long link %d corrupted by hostile envelope: %+v", j, l)
		}
	}
	if !n.Joined() {
		t.Fatal("node no longer joined after hostile envelopes")
	}
}

// TestNonFinitePositionsAreRefused: a NaN or infinite position in a
// NodeInfo used to pass Decode. A neighbour list naming a peer at
// (NaN, 0.3), or a join routed for a joiner there, panicked the node in
// its neighbour computation — over TCP that ended the process, and under
// a recover it left n.mu held, so the next accessor hung — and a peer at
// (+Inf, 0.3) was admitted into vn. The frames are now refused at
// decode, and — defence in depth — the node ignores such candidates and
// joiners even past the decoder. Everything runs under a timeout so that
// a wedged lock fails the test instead of hanging it.
func TestNonFinitePositionsAreRefused(t *testing.T) {
	c := newCluster(t, 12, 0.05, 36)
	victim := c.nodes[5]
	nbrs := victim.Neighbors()
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Addr < nbrs[j].Addr })
	nbr := nbrs[0]
	var nbrList []proto.NodeInfo
	for _, nd := range c.nodes {
		if nd.Info().Addr == nbr.Addr {
			nbrList = nd.Neighbors()
		}
	}
	// The addresses sort before every member's, so the hostile entries
	// come first in any address-ordered pass over a candidate pool.
	nan := proto.NodeInfo{Addr: "0nan", Pos: geom.Pt(math.NaN(), 0.3)}
	inf := proto.NodeInfo{Addr: "0inf", Pos: geom.Pt(math.Inf(1), 0.3)}
	ninf := proto.NodeInfo{Addr: "0ninf", Pos: geom.Pt(0.3, math.Inf(-1))}
	hostile := []*proto.Envelope{
		{Type: proto.KindNeighborList, From: nbr, Neighbors: append(append([]proto.NodeInfo(nil), nbrList...), nan)},
		{Type: proto.KindNeighborList, From: nbr, Neighbors: append(append([]proto.NodeInfo(nil), nbrList...), inf, ninf)},
		{Type: proto.KindRoute, Purpose: proto.PurposeJoin, Target: nan.Pos, Origin: nan},
		{Type: proto.KindRoute, Purpose: proto.PurposeJoin, Target: inf.Pos, Origin: inf},
		{Type: proto.KindSetNeighbors, From: nbr, Origin: nan},
		{Type: proto.KindSetNeighbors, From: nbr, Origin: ninf},
		{Type: proto.KindCNAdd, From: nbr, CloseCand: []proto.NodeInfo{nan, inf}},
	}
	guarded := func(what string, f func()) {
		t.Helper()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			f()
		}()
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("%s panicked: %v", what, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung", what)
		}
	}
	for i, env := range hostile {
		before := counter(victim, "node_decode_errors_total")
		guarded(fmt.Sprintf("frame %d over the wire", i), func() {
			victim.handle(nbr.Addr, proto.AppendEncode(nil, env))
			c.bus.Drain()
		})
		if counter(victim, "node_decode_errors_total") != before+1 {
			t.Errorf("frame %d (%v) was not refused at decode", i, env.Type)
		}
		guarded(fmt.Sprintf("envelope %d past the decoder", i), func() {
			victim.deliver(env)
			c.bus.Drain()
		})
	}
	guarded("reading the views", func() {
		for _, nd := range c.nodes {
			for _, v := range append(nd.Neighbors(), nd.CloseNeighbors()...) {
				if !geom.InDomain(v.Pos) {
					t.Errorf("%s admitted %s at %v", nd.Info().Addr, v.Addr, v.Pos)
				}
			}
		}
	})
	c.checkViewsAgainstReference(t)

	// A node at a non-finite position cannot enter an overlay at all.
	for i, p := range []geom.Point{nan.Pos, inf.Pos, ninf.Pos} {
		ep, err := c.bus.Attach(fmt.Sprintf("bad%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nd := New(ep, p, Config{DMin: 0.05})
		if err := nd.Join(victim.Info().Addr); err == nil {
			t.Errorf("Join at %v succeeded", p)
		}
		if err := nd.Bootstrap(); err == nil || nd.Joined() {
			t.Errorf("Bootstrap at %v succeeded", p)
		}
	}
}

// TestFarJoinerDrains routes one join for a joiner at a position far
// outside the position domain into small clusters, over the wire (handle)
// and past the decoder (deliver). At such magnitudes the predicates'
// floating-point arithmetic overflows, the nodes disagree on the
// joiner's cell, and their view exchanges used never to end; the joiner
// must now be refused, leaving at most a short drain. Each drain runs
// under a deadline; one that outlives it is cut by closing the cluster's
// endpoints.
func TestFarJoinerDrains(t *testing.T) {
	far := []geom.Point{
		geom.Pt(-1e100, -1e103), geom.Pt(-5e126, -6e129), geom.Pt(-1e150, -1e153), geom.Pt(1e126, 1e129),
	}
	for _, dmin := range []float64{0.1, 0.02, 0.001} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, p := range far {
				for _, wire := range []bool{true, false} {
					c := newCluster(t, 5, dmin, seed)
					from := c.nodes[1].Info()
					env := &proto.Envelope{Type: proto.KindRoute, Purpose: proto.PurposeJoin, Target: p,
						Origin: proto.NodeInfo{Addr: "joiner", Pos: p}, From: from}
					before := c.bus.DeliveredCount()
					done := make(chan struct{})
					go func() {
						defer close(done)
						if wire {
							c.nodes[0].handle(from.Addr, proto.AppendEncode(nil, env))
						} else {
							c.nodes[0].deliver(env)
						}
						c.bus.Drain()
					}()
					select {
					case <-done:
					case <-time.After(2 * time.Second):
						for _, nd := range c.nodes {
							nd.ep.Close()
						}
						<-done
						t.Fatalf("dmin %v seed %d joiner at %v (wire %v): the drain did not end, %d deliveries",
							dmin, seed, p, wire, c.bus.DeliveredCount()-before)
					}
					if n := c.bus.DeliveredCount() - before; n > 50 {
						t.Fatalf("dmin %v seed %d joiner at %v (wire %v): %d deliveries, want at most 50",
							dmin, seed, p, wire, n)
					}
				}
			}
		}
	}
}

// TestDeliverDropsRetiredKinds: Decode refuses a retired or out-of-range
// kind, and deliver drops one that got past it before it can count it,
// touch the tombstones or reach a handler. Each envelope names a Voronoi
// neighbour as departed, which a delivered message would act on.
func TestDeliverDropsRetiredKinds(t *testing.T) {
	c := newCluster(t, 16, 0.02, 3)
	n := c.nodes[len(c.nodes)-1]
	nb := n.view.Load()
	if len(nb.vn) == 0 {
		t.Fatal("a joined node with no Voronoi neighbour")
	}
	victim := nb.vn[0]
	var kinds []proto.Kind
	for k := range proto.KindCount {
		if k.String() == "" {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no retired kind to inject")
	}
	kinds = append(kinds, proto.KindCount)
	before := n.Metrics().Snapshot()
	for _, k := range kinds {
		n.deliver(&proto.Envelope{Type: k, From: victim, Departed: []string{victim.Addr}, Target: n.self.Pos})
		c.bus.Drain()
		if n.view.Load() != nb {
			t.Fatalf("kind %d changed the node's neighbourhood", int(k))
		}
		if after := n.Metrics().Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("kind %d changed the node's books", int(k))
		}
	}
}
