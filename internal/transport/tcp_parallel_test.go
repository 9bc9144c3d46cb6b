package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPPerPeerFIFO: with parallel dispatch, messages from one peer must
// still be handled strictly in send order, whatever the worker pool does.
func TestTCPPerPeerFIFO(t *testing.T) {
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const senders = 4
	const perSender = 200
	var mu sync.Mutex
	last := make(map[string]uint32) // sender addr -> last sequence seen
	var violations, got atomic.Int64
	recv.SetHandler(func(from string, payload []byte) {
		seq := binary.BigEndian.Uint32(payload)
		mu.Lock()
		if prev, ok := last[from]; ok && seq != prev+1 {
			violations.Add(1)
		}
		last[from] = seq
		mu.Unlock()
		got.Add(1)
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		wg.Add(1)
		go func(ep *TCPEndpoint) {
			defer wg.Done()
			var buf [4]byte
			for i := 1; i <= perSender; i++ {
				binary.BigEndian.PutUint32(buf[:], uint32(i))
				if err := ep.Send(recv.Addr(), buf[:]); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < senders*perSender && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() != senders*perSender {
		t.Fatalf("delivered %d of %d", got.Load(), senders*perSender)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d per-peer FIFO violations under parallel dispatch", v)
	}
}

// TestTCPParallelDispatchOverlaps: messages from independent peers must be
// *in flight concurrently* — the property the old global dispatch mutex
// made impossible. Each handler invocation parks until `want` of them
// overlap; with serial dispatch this would deadlock, so reaching the
// barrier proves parallelism.
func TestTCPParallelDispatchOverlaps(t *testing.T) {
	const want = 2 // ListenTCP guarantees at least two dispatch workers
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var inflight atomic.Int64
	reached := make(chan struct{})
	var once sync.Once
	release := make(chan struct{})
	recv.SetHandler(func(string, []byte) {
		if inflight.Add(1) == want {
			once.Do(func() { close(reached) })
		}
		select {
		case <-release:
		case <-time.After(15 * time.Second):
		}
		inflight.Add(-1)
	})

	for s := 0; s < want; s++ {
		ep, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		if err := ep.Send(recv.Addr(), []byte(fmt.Sprintf("m%d", s))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-reached:
		close(release) // success: want handlers overlapped
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatalf("handlers never overlapped: dispatch is serialised (inflight max %d)", inflight.Load())
	}
}

// TestTCPConcurrentWritesIntact: hammer one connection from many
// goroutines; the writer lock must never let a frame be corrupted or
// dropped.
func TestTCPConcurrentWritesIntact(t *testing.T) {
	t.Run("16_senders", func(t *testing.T) {
		recv, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		var mu sync.Mutex
		seen := make(map[string]bool)
		var got atomic.Int64
		recv.SetHandler(func(_ string, payload []byte) {
			mu.Lock()
			seen[string(payload)] = true
			mu.Unlock()
			got.Add(1)
		})

		snd, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer snd.Close()

		const workers = 16
		const perWorker = 100
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					msg := fmt.Sprintf("w%02d-i%03d", w, i)
					if err := snd.Send(recv.Addr(), []byte(msg)); err != nil {
						t.Errorf("send %s: %v", msg, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		total := int64(workers * perWorker)
		deadline := time.Now().Add(10 * time.Second)
		for got.Load() < total && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		if int64(len(seen)) != total || got.Load() != total {
			t.Fatalf("distinct %d, delivered %d, want %d (frames corrupted, dropped or duplicated)",
				len(seen), got.Load(), total)
		}
	})
}
