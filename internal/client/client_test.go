package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// busOverlay builds n overlay members on a simnet bus and returns them
// with the bus. The bus is drained manually, so tests use the client's
// async API and drain between dispatch and assertion.
func busOverlay(t *testing.T, n int) (*transport.Bus, []*node.Node) {
	t.Helper()
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(7))
	nodes := make([]*node.Node, 0, n)
	for i := 0; i < n; i++ {
		ep, err := bus.Attach(fmt.Sprintf("n%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		nd := node.New(ep, geom.Pt(rng.Float64(), rng.Float64()), node.Config{
			DMin: 0.05, LongLinks: 1, Seed: int64(i),
			RequestTimeout: 365 * 24 * time.Hour,
		})
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nd.Join(nodes[rng.Intn(len(nodes))].Info().Addr); err != nil {
				t.Fatal(err)
			}
			bus.Drain()
			if !nd.Joined() {
				t.Fatalf("node %d failed to join", i)
			}
		}
		nodes = append(nodes, nd)
	}
	return bus, nodes
}

// TestClientOverBus drives the full client surface — pipelined PUT, GET,
// DELETE, point query — through a gateway member on the deterministic
// simnet, with many requests in flight at once.
func TestClientOverBus(t *testing.T) {
	bus, nodes := busOverlay(t, 10)
	cep, err := bus.Attach("client")
	if err != nil {
		t.Fatal(err)
	}
	cl := New(cep, nodes[3].Info().Addr, 0)
	defer cl.Close()

	rng := rand.New(rand.NewSource(11))
	const n = 24
	keys := make([]geom.Point, n)
	var mu sync.Mutex
	acks := map[int]store.Reply{}
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
		i := i
		if err := cl.Put(keys[i], []byte(fmt.Sprintf("v-%02d", i)), func(r store.Reply) {
			mu.Lock()
			acks[i] = r
			mu.Unlock()
		}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if bus.Pending() != n {
		t.Fatalf("%d requests on the wire before drain, want %d in flight at once", bus.Pending(), n)
	}
	bus.Drain()
	for i := 0; i < n; i++ {
		r, ok := acks[i]
		if !ok || r.Err != nil || !r.Found {
			t.Fatalf("put %d ack = %+v (present %v)", i, r, ok)
		}
	}

	gets := map[int]store.Reply{}
	for i := range keys {
		i := i
		if err := cl.Get(keys[i], func(r store.Reply) {
			mu.Lock()
			gets[i] = r
			mu.Unlock()
		}); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	bus.Drain()
	for i := 0; i < n; i++ {
		r := gets[i]
		if r.Err != nil || !r.Found || string(r.Value) != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("get %d = %+v", i, r)
		}
	}

	// Query: the answer names the true owner (closest member to the point).
	p := keys[0]
	var q store.Reply
	if err := cl.dispatch(proto.PurposeQuery, p, nil, func(r store.Reply) { q = r }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if q.Err != nil || q.Owner.Addr == "" {
		t.Fatalf("query = %+v", q)
	}
	best, bestD := "", 0.0
	for _, nd := range nodes {
		if d := geom.Dist2(nd.Info().Pos, p); best == "" || d < bestD {
			best, bestD = nd.Info().Addr, d
		}
	}
	if q.Owner.Addr != best {
		t.Fatalf("query owner = %s, want %s", q.Owner.Addr, best)
	}

	// Delete, then the GET reports not-found.
	var del, miss store.Reply
	if err := cl.dispatch(proto.PurposeStoreDelete, keys[0], nil, func(r store.Reply) { del = r }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if del.Err != nil || !del.Found {
		t.Fatalf("delete = %+v", del)
	}
	if err := cl.Get(keys[0], func(r store.Reply) { miss = r }); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if miss.Err != nil || miss.Found {
		t.Fatalf("get after delete = %+v, want not found", miss)
	}
}

// TestClientFailedSendCancels: a dispatch the transport refuses leaves no
// orphaned inflight entry: the callback never fires, not even when the
// request's deadline passes; the error is the caller's signal.
func TestClientFailedSendCancels(t *testing.T) {
	bus := transport.NewBus()
	cep, err := bus.Attach("client")
	if err != nil {
		t.Fatal(err)
	}
	cl := New(cep, "nowhere", time.Millisecond)
	defer cl.Close()
	err = cl.Put(geom.Pt(0.5, 0.5), []byte("x"), func(store.Reply) {
		t.Error("callback fired for a failed send")
	})
	if !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	time.Sleep(20 * time.Millisecond) // well past the deadline
}

// TestClientPipelinedTCP is the end-to-end check over real sockets: one
// pipelined client, many concurrent goroutines sharing it, a small TCP
// overlay. Run under -race in CI.
func TestClientPipelinedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP client test skipped in -short")
	}
	const members = 5
	rng := rand.New(rand.NewSource(23))
	cfg := func(i int) node.Config {
		return node.Config{
			DMin: 0.05, LongLinks: 2, Seed: int64(i), Replication: 2,
			RequestTimeout: 5 * time.Second,
		}
	}
	var nodes []*node.Node
	var eps []transport.Endpoint
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	for i := 0; i < members; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
		nd := node.New(ep, geom.Pt(rng.Float64(), rng.Float64()), cfg(i))
		if i == 0 {
			if err := nd.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nd.Join(nodes[0].Info().Addr); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for !nd.Joined() {
				if time.Now().After(deadline) {
					t.Fatalf("node %d failed to join", i)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		nodes = append(nodes, nd)
	}

	cl, err := Dial(nodes[1].Info().Addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const goroutines, opsEach = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*opsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < opsEach; i++ {
				key := geom.Pt(rng.Float64(), rng.Float64())
				want := fmt.Sprintf("g%d-%d", g, i)
				if err := cl.PutSync(key, []byte(want)); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				got, err := cl.GetSync(key)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("get = %q, want %q", got, want)
					return
				}
				if _, _, err := cl.QuerySync(key); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
