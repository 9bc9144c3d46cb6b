package node

import (
	"sync/atomic"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/transport"
)

// pendingQueries counts the registered Query callbacks (white-box).
func pendingQueries(n *Node) int {
	n.queryMu.Lock()
	defer n.queryMu.Unlock()
	return len(n.queries)
}

// pendingRanges counts the registered RangeQuery callbacks (white-box).
func pendingRanges(n *Node) int {
	n.queryMu.Lock()
	defer n.queryMu.Unlock()
	return len(n.rangeHits)
}

// TestQueryTimeoutReapsCallback: the owner of the queried point crashes
// after the query reached it but before its answer could be delivered.
// The registered callback used to leak in n.queries forever; now the
// per-query deadline reaps it and fires it exactly once with HopsTimedOut.
// (The tests in this file issue no store operation: the 50 ms
// RequestTimeout is wanted for its query and range-query reaper only.)
func TestQueryTimeoutReapsCallback(t *testing.T) {
	bus := transport.NewBus()
	mk := func(addr string, pos geom.Point) (*Node, transport.Endpoint) {
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		return New(ep, pos, Config{DMin: 0.05, LongLinks: 1, Seed: 7,
			RequestTimeout: 50 * time.Millisecond}), ep
	}
	origin, _ := mk("origin", geom.Pt(0.1, 0.1))
	owner, ownerEP := mk("owner", geom.Pt(0.9, 0.9))
	if err := origin.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := owner.Join(origin.Info().Addr); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if !owner.Joined() {
		t.Fatal("owner failed to join")
	}

	var fired atomic.Int32
	var timedOut atomic.Bool
	const queries = 5
	for q := 0; q < queries; q++ {
		// The query routes toward owner's region; owner crashes with the
		// messages in flight, so no answer ever comes back.
		err := origin.Query(geom.Pt(0.89, 0.89), func(got proto.NodeInfo, hops int) {
			fired.Add(1)
			if hops == HopsTimedOut && got.Addr == "" {
				timedOut.Store(true)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := pendingQueries(origin); got != queries {
		t.Fatalf("pending queries before crash: %d, want %d", got, queries)
	}
	ownerEP.Close() // crash: the in-flight queries die with the owner
	bus.Drain()

	deadline := time.Now().Add(2 * time.Second)
	for pendingQueries(origin) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := pendingQueries(origin); got != 0 {
		t.Fatalf("%d query callbacks leaked after the owner crashed", got)
	}
	if got := fired.Load(); got != queries {
		t.Fatalf("callbacks fired %d times, want %d", got, queries)
	}
	if !timedOut.Load() {
		t.Fatal("no callback observed the HopsTimedOut signal")
	}

	// A late answer for a reaped ID must be dropped, not double-fire.
	origin.deliver(&proto.Envelope{Type: proto.KindQueryAnswer,
		From: owner.Info(), QueryID: 1, Hops: 3})
	if got := fired.Load(); got != queries {
		t.Fatalf("late answer double-fired a reaped callback: %d", got)
	}
}

// TestRangeQueryTimeoutReapsCallback: a RangeQuery whose flood dies with a
// crashed region owner must not leak its collection callback.
func TestRangeQueryTimeoutReapsCallback(t *testing.T) {
	bus := transport.NewBus()
	epA, err := bus.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	a := New(epA, geom.Pt(0.1, 0.5), Config{DMin: 0.05, LongLinks: 1, Seed: 3,
		RequestTimeout: 50 * time.Millisecond})
	epB, err := bus.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	b := New(epB, geom.Pt(0.9, 0.5), Config{DMin: 0.05, LongLinks: 1, Seed: 4,
		RequestTimeout: 50 * time.Millisecond})
	if err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(a.Info().Addr); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	// Cut b off so the collection window closes on the deadline.
	bus.SetPeerRule("b", transport.LinkRule{Down: true})
	if err := a.RangeQuery(geom.Pt(0.8, 0.5), geom.Pt(0.95, 0.5), func(proto.NodeInfo) {}); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	deadline := time.Now().Add(2 * time.Second)
	for pendingRanges(a) > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := pendingRanges(a); got != 0 {
		t.Fatalf("%d range callbacks leaked after the deadline", got)
	}
}
