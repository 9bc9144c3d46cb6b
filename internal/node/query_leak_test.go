package node

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// TestQueryTimeoutReapsCallback: the owner of the queried point crashes
// after the queries reached it but before its answers could be delivered.
// Each callback must fire exactly once, with store.ErrTimeout, and count
// as a query timeout (not a store one); a late answer for a reaped request
// must neither fire it again nor pass uncounted. (The tests in this file
// start no store operation the 50 ms RequestTimeout could cut short.)
func TestQueryTimeoutReapsCallback(t *testing.T) {
	const timeout = 50 * time.Millisecond
	bus := transport.NewSeededBus(1)
	mk := func(addr string, pos geom.Point) (*Node, transport.Endpoint) {
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		return New(ep, pos, Config{DMin: 0.05, LongLinks: 1, Seed: 7,
			RequestTimeout: timeout}), ep
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

	var fired, timedOut atomic.Int32
	const queries = 5
	for q := 0; q < queries; q++ {
		// The query routes toward owner's region; owner crashes with the
		// messages in flight, so no answer ever comes back.
		err := origin.Query(geom.Pt(0.89, 0.89), func(r store.Reply) {
			fired.Add(1)
			if errors.Is(r.Err, store.ErrTimeout) && r.Owner.Addr == "" {
				timedOut.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := fired.Load(); got != 0 {
		t.Fatalf("%d callbacks fired before the crash", got)
	}
	ownerEP.Close() // crash: the in-flight queries die with the owner
	bus.Drain()

	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() < queries && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(2 * timeout) // room for a second firing, were there one
	if got := fired.Load(); got != queries {
		t.Fatalf("callbacks fired %d times, want %d", got, queries)
	}
	if got := timedOut.Load(); got != queries {
		t.Fatalf("%d of %d callbacks saw store.ErrTimeout", got, queries)
	}
	if got := counter(origin, "node_query_timeouts_total"); got != queries {
		t.Fatalf("node_query_timeouts_total = %d, want %d", got, queries)
	}
	if got := counter(origin, "store_timeouts_total"); got != 0 {
		t.Fatalf("query timeouts counted as store timeouts: %d", got)
	}

	// A late answer for a reaped ID must be dropped, not double-fire.
	late := counter(origin, "node_late_answers_total")
	origin.deliver(&proto.Envelope{Type: proto.KindQueryAnswer,
		From: owner.Info(), QueryID: 1, Hops: 3})
	if got := fired.Load(); got != queries {
		t.Fatalf("late answer double-fired a reaped callback: %d", got)
	}
	if got := counter(origin, "node_late_answers_total"); got != late+1 {
		t.Fatalf("node_late_answers_total = %d, want %d", got, late+1)
	}
}

// TestQueryTakesAnInflightSlot: a query is a routed request like any
// other. It needs a slot of the origin's MaxInflight budget, and a
// draining node refuses it; both refusals are store.ErrOverloaded,
// returned before anything is sent, and the refused callback never fires.
func TestQueryTakesAnInflightSlot(t *testing.T) {
	c := newClusterCfg(t, 12, 0.02, 203, func(cfg *Config) { cfg.MaxInflight = 1 })
	origin := c.nodes[1]
	owner := c.nodes[5].Info()
	refused := func(store.Reply) { t.Error("a refused query's callback fired") }

	// A pending Get holds the only slot.
	var get *store.Reply
	if err := origin.Get(owner.Pos, func(r store.Reply) { get = &r }); err != nil {
		t.Fatal(err)
	}
	if get != nil {
		t.Fatalf("get resolved before drain; key %v not remote to %s", owner.Pos, origin.Info().Addr)
	}
	sent := counter(origin, "node_sent_total")
	if err := origin.Query(owner.Pos, refused); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("query at budget: got %v, want ErrOverloaded", err)
	}
	if got := counter(origin, "node_sent_total"); got != sent {
		t.Fatalf("refused query sent %d messages", got-sent)
	}
	if got := counter(origin, "store_shed_total"); got != 1 {
		t.Fatalf("store_shed_total = %d, want 1", got)
	}
	c.bus.Drain()
	if get == nil || get.Err != nil {
		t.Fatalf("admitted get: %+v", get)
	}

	// The slot is free again: the query is admitted and answered.
	var ans *store.Reply
	if err := origin.Query(owner.Pos, func(r store.Reply) { ans = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if ans == nil || ans.Err != nil || !ans.Found || ans.Owner.Addr != owner.Addr {
		t.Fatalf("admitted query: %+v, want an answer from %s", ans, owner.Addr)
	}

	// Shutdown raises the draining flag before its handoff; from then on
	// the node originates nothing.
	origin.draining.Store(true)
	if err := origin.Query(owner.Pos, refused); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("query while draining: got %v, want ErrOverloaded", err)
	}
	if got := counter(origin, "store_shed_total"); got != 2 {
		t.Fatalf("store_shed_total = %d, want 2", got)
	}
	if err := origin.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if err := origin.Query(owner.Pos, refused); !errors.Is(err, ErrNotJoined) {
		t.Fatalf("query after shutdown: got %v, want ErrNotJoined", err)
	}
}
