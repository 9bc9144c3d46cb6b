package node

import (
	"errors"
	"sync"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// flakyEndpoint wraps a bus endpoint and injects per-destination send
// failures: the first failN sends to a destination fail with failErr, the
// rest pass through. It counts every attempt.
type flakyEndpoint struct {
	transport.Endpoint
	mu       sync.Mutex
	failN    map[string]int
	failErr  error
	attempts map[string]int
}

func newFlaky(ep transport.Endpoint, failErr error) *flakyEndpoint {
	return &flakyEndpoint{Endpoint: ep, failErr: failErr,
		failN: map[string]int{}, attempts: map[string]int{}}
}

func (f *flakyEndpoint) Send(to string, payload []byte) error {
	f.mu.Lock()
	f.attempts[to]++
	fail := f.failN[to] > 0
	if fail {
		f.failN[to]--
	}
	f.mu.Unlock()
	if fail {
		return f.failErr
	}
	return f.Endpoint.Send(to, payload)
}

func (f *flakyEndpoint) sentTo(to string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[to]
}

// twoNodeOverlay builds origin(0.1,0.1) + peer(0.9,0.9) with origin's
// endpoint wrapped by the given flaky wrapper factory.
func twoNodeOverlay(t *testing.T, bus *transport.Bus, wrap func(transport.Endpoint) *flakyEndpoint) (*Node, *Node, *flakyEndpoint) {
	t.Helper()
	epO, err := bus.Attach("origin")
	if err != nil {
		t.Fatal(err)
	}
	fl := wrap(epO)
	origin := New(fl, geom.Pt(0.1, 0.1), Config{DMin: 0.05, LongLinks: 1, Seed: 11})
	epP, err := bus.Attach("peer")
	if err != nil {
		t.Fatal(err)
	}
	peer := New(epP, geom.Pt(0.9, 0.9), Config{DMin: 0.05, LongLinks: 1, Seed: 12})
	if err := origin.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Join(origin.Info().Addr); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if !peer.Joined() {
		t.Fatal("peer failed to join")
	}
	return origin, peer, fl
}

// TestRouteRetryOnTransientFailure: a transient send failure on a flaky
// link (a cached TCP connection the remote closed while idle) must be
// retried exactly once and succeed — without condemning the peer.
func TestRouteRetryOnTransientFailure(t *testing.T) {
	bus := transport.NewBus()
	origin, peer, fl := twoNodeOverlay(t, bus, func(ep transport.Endpoint) *flakyEndpoint {
		return newFlaky(ep, errors.New("transient: connection reset"))
	})

	before := fl.sentTo("peer")
	fl.mu.Lock()
	fl.failN["peer"] = 1 // next send to peer fails once
	fl.mu.Unlock()

	var owner proto.NodeInfo
	if err := origin.Query(geom.Pt(0.88, 0.88), func(r store.Reply) { owner = r.Owner }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	if owner.Addr != peer.Info().Addr {
		t.Fatalf("query answered by %q, want %q", owner.Addr, peer.Info().Addr)
	}
	if got := fl.sentTo("peer") - before; got != 2 {
		t.Fatalf("%d send attempts to peer, want 2 (first + one retry)", got)
	}
	if origin.tombstoned("peer") {
		t.Fatal("transient failure must not tombstone the peer")
	}
}

// TestRouteNoRetryOnStructuralFailure: ErrUnknownPeer (and ErrClosed)
// mean resending the identical frame can never succeed. The old retry
// policy resent anyway, doubling the cost of every send to a crashed
// simnet peer; the shared helper must fail over to departure repair after
// a single attempt.
func TestRouteNoRetryOnStructuralFailure(t *testing.T) {
	for _, structural := range []error{transport.ErrUnknownPeer, transport.ErrClosed} {
		t.Run(structural.Error(), func(t *testing.T) {
			bus := transport.NewBus()
			origin, peer, fl := twoNodeOverlay(t, bus, func(ep transport.Endpoint) *flakyEndpoint {
				return newFlaky(ep, structural)
			})

			before := fl.sentTo("peer")
			fl.mu.Lock()
			fl.failN["peer"] = 1 << 20 // every send to peer now fails
			fl.mu.Unlock()

			var owner proto.NodeInfo
			if err := origin.Query(geom.Pt(0.88, 0.88), func(r store.Reply) { owner = r.Owner }); err != nil {
				t.Fatal(err)
			}
			bus.Drain()

			// One attempt for the routed query; the failure repairs the view
			// (tombstone + departure surgery) and the route falls back to the
			// origin itself, which answers as the surviving owner.
			if got := fl.sentTo("peer") - before; got != 1 {
				t.Fatalf("%d send attempts to peer, want exactly 1 (no structural retry)", got)
			}
			if !origin.tombstoned("peer") {
				t.Fatal("structural failure must tombstone the unreachable peer")
			}
			if owner.Addr != origin.Info().Addr {
				t.Fatalf("query answered by %q, want fallback owner %q", owner.Addr, origin.Info().Addr)
			}
			_ = peer
		})
	}
}

// tombstoned reports whether addr is in this node's tombstone set
// (white-box test helper).
func (n *Node) tombstoned(addr string) bool {
	_, dead := n.view.Load().tombs.gen[addr]
	return dead
}
