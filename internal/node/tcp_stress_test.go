package node

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// TestTCPConcurrentAPIDuringChurn is the live-node counterpart of the
// simulator's concurrent-readers test (internal/core/concurrent_test.go):
// real TCP endpoints with parallel dispatch lanes, concurrent Query / Put
// / Get API calls from several client goroutines, while a
// churn loop joins and removes nodes. Run under -race in CI; the
// assertions are deliberately loose (operations may time out around a
// churn event) — the test's job is to drive every read path concurrently
// with view surgery and let the race detector judge the locking.
func TestTCPConcurrentAPIDuringChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP churn stress skipped in -short")
	}
	const (
		baseNodes   = 6
		clients     = 4
		opsPerGorou = 40
		churnCycles = 3
	)
	mkCfg := func(i int) Config {
		return Config{
			DMin: 0.05, LongLinks: 2, Seed: int64(i), Replication: 2,
			RequestTimeout: 2 * time.Second,
		}
	}
	var nodes []*Node
	var mu sync.Mutex // guards nodes (the churn loop appends/removes)
	mk := func(i int, pos geom.Point) *Node {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return New(ep, pos, mkCfg(i))
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, nd := range nodes {
			nd.ep.Close()
		}
	}()

	rng := rand.New(rand.NewSource(4242))
	first := mk(0, geom.Pt(rng.Float64(), rng.Float64()))
	if err := first.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, first)
	for i := 1; i < baseNodes; i++ {
		nd := mk(i, geom.Pt(rng.Float64(), rng.Float64()))
		if err := nd.Join(first.Info().Addr); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, nd.Joined)
		nodes = append(nodes, nd)
	}
	time.Sleep(50 * time.Millisecond) // let maintenance gossip settle

	// Seed some records so GETs can hit.
	keys := make([]geom.Point, 16)
	for i := range keys {
		keys[i] = geom.Pt(rng.Float64(), rng.Float64())
		if err := nodes[i%baseNodes].PutSync(keys[i], []byte(fmt.Sprintf("seed-%02d", i))); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}

	pick := func(r *rand.Rand) *Node {
		mu.Lock()
		defer mu.Unlock()
		return nodes[r.Intn(baseNodes)] // base nodes never leave
	}

	var answered, timedOut atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < opsPerGorou; i++ {
				nd := pick(r)
				p := geom.Pt(r.Float64(), r.Float64())
				switch i % 3 {
				case 0:
					done := make(chan struct{})
					if err := nd.Query(p, func(r store.Reply) {
						if r.Err != nil {
							timedOut.Add(1)
						} else {
							answered.Add(1)
						}
						close(done)
					}); err == nil {
						<-done
					}
				case 1:
					_ = nd.PutSync(p, []byte(fmt.Sprintf("c%d-i%d", c, i)))
				case 2:
					if _, err := nd.GetSync(keys[r.Intn(len(keys))]); err == nil {
						answered.Add(1)
					}
				}
				// The public accessors read the published view too.
				_, _, _, _, _ = nd.Neighbors(), nd.CloseNeighbors(), nd.LongNeighbors(), nd.BackEntries(), nd.LongTargets()
			}
		}(c)
	}

	// Churn alongside the clients: extra nodes join, live briefly, leave.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(777))
		for cyc := 0; cyc < churnCycles; cyc++ {
			nd := mk(100+cyc, geom.Pt(r.Float64(), r.Float64()))
			if err := nd.Join(first.Info().Addr); err != nil {
				nd.ep.Close()
				continue
			}
			// A join admitted by a region owner that crashed mid-grant can
			// be lost (no retransmission layer by design); give up on that
			// cycle after a bounded wait instead of stalling the churn loop.
			deadline := time.Now().Add(3 * time.Second)
			for !nd.Joined() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(30 * time.Millisecond)
			if nd.Joined() {
				_ = nd.Leave()
			}
			nd.ep.Close()
		}
	}()
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatalf("no query or get succeeded during churn (%d timeouts)", timedOut.Load())
	}
	// The overlay must still work end to end after the churn storm. The
	// first operation after a crash may legitimately lose a frame to a
	// dying TCP connection (the write succeeds locally before the RST
	// arrives; the *next* send through that connection errors and drives
	// the departure repair), so a bounded retry is part of the protocol's
	// recovery model — what must hold is that the overlay converges to
	// serving again, not that no single op ever times out.
	k := geom.Pt(0.123, 0.456)
	var perr error
	for attempt := 0; attempt < 4; attempt++ {
		if perr = nodes[1].PutSync(k, []byte("post-churn")); perr == nil {
			break
		}
	}
	if perr != nil {
		t.Fatalf("post-churn put never succeeded: %v", perr)
	}
	var v []byte
	var gerr error
	for attempt := 0; attempt < 4; attempt++ {
		if v, gerr = nodes[2].GetSync(k); gerr == nil {
			break
		}
	}
	if gerr != nil || string(v) != "post-churn" {
		t.Fatalf("post-churn get: %q, %v", v, gerr)
	}
}
