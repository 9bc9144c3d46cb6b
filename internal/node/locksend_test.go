package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// lockAuditEndpoint wraps a transport endpoint and, on every outbound
// send, checks that the owning node does not hold its view lock. The
// in-memory bus delivers synchronously on the driving goroutine, so a
// failed TryLock can only mean *this* goroutine reached the transport
// with a lock held — exactly the "network under locks" bug class: a
// blocking TCP write would then stall every other operation on the node.
type lockAuditEndpoint struct {
	transport.Endpoint
	node       *Node
	violations *atomic.Int64
}

func (e *lockAuditEndpoint) Send(to string, payload []byte) error {
	if n := e.node; n != nil {
		if n.mu.TryLock() {
			n.mu.Unlock()
		} else {
			e.violations.Add(1)
		}
	}
	return e.Endpoint.Send(to, payload)
}

// TestNoLockHeldAcrossSends audits the whole node protocol — join,
// gossip, long-link search, the routed store Put/Get/Delete path, leave —
// for transport sends performed while a node mutex is held. Regression
// test for the store read/write path audit: every send must happen after
// the state under the lock has been snapshotted and the lock released.
func TestNoLockHeldAcrossSends(t *testing.T) {
	bus := transport.NewBus()
	var violations atomic.Int64
	rng := rand.New(rand.NewSource(61))

	const peers = 12
	nodes := make([]*Node, 0, peers)
	addrs := make([]string, 0, peers)
	for i := 0; i < peers; i++ {
		addr := fmt.Sprintf("n%02d", i)
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		guard := &lockAuditEndpoint{Endpoint: ep, violations: &violations}
		nd := New(guard, geom.Pt(rng.Float64(), rng.Float64()), Config{
			DMin: 0.05, LongLinks: 1, Seed: int64(i), Replication: 2,
		})
		guard.node = nd
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nd.Join(addrs[rng.Intn(len(addrs))]); err != nil {
				t.Fatal(err)
			}
			bus.Drain()
			if !nd.Joined() {
				t.Fatalf("node %s failed to join", addr)
			}
		}
		nodes = append(nodes, nd)
		addrs = append(addrs, addr)
	}

	// The routed store path: puts, gets (hit and miss), overwrite, delete.
	keys := make([]geom.Point, 20)
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
		val := []byte(fmt.Sprintf("v%02d", i))
		if err := nodes[rng.Intn(peers)].Put(keys[i], val, nil); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
	}
	for i, k := range keys {
		var got *store.Reply
		if err := nodes[rng.Intn(peers)].Get(k, func(r store.Reply) { got = &r }); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
		if got == nil || !got.Found || !bytes.Equal(got.Value, []byte(fmt.Sprintf("v%02d", i))) {
			t.Fatalf("get %d: %+v", i, got)
		}
	}
	if err := nodes[1].Get(geom.Pt(0.999, 0.999), nil); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if err := nodes[2].Delete(keys[0], nil); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	// Churn: anti-entropy plus a leave, both heavy send paths.
	for _, nd := range nodes {
		nd.SyncReplicas()
	}
	bus.Drain()
	if err := nodes[peers-1].Leave(); err != nil {
		t.Fatal(err)
	}
	bus.Drain()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d transport send(s) performed while a node mutex was held", v)
	}
}
