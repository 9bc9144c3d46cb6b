package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPSendAfterCloseWithCachedConn: a closed endpoint must refuse to
// send even over a connection it had already dialled and cached, and must
// keep refusing (no panic, no resurrection).
func TestTCPSendAfterCloseWithCachedConn(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetHandler(func(string, []byte) {})

	if err := a.Send(b.Addr(), []byte("before close")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), []byte("after close")); err == nil {
			t.Fatal("send after close must fail")
		} else if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("send after close: %v", err)
		}
	}
}

// TestTCPSendUnknownPeer: sending to an address nothing listens on fails
// with a dial error instead of blocking or panicking.
func TestTCPSendUnknownPeer(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Reserve a port, then free it so the dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	if err := a.Send(dead, []byte("hello?")); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
	// The endpoint stays usable after the failure.
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) { got <- struct{}{} })
	if err := a.Send(b.Addr(), []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery after failed send timed out")
	}
}

// TestTCPConcurrentSends hammers one receiver from many goroutines over
// two sender endpoints. Every frame must arrive intact: frame writes to a
// shared connection must not interleave.
func TestTCPConcurrentSends(t *testing.T) {
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const (
		senders   = 2
		workers   = 8
		perWorker = 50
	)
	total := senders * workers * perWorker
	var delivered atomic.Int64
	seen := make(map[string]bool, total)
	var seenMu sync.Mutex
	recv.SetHandler(func(from string, payload []byte) {
		seenMu.Lock()
		seen[string(payload)] = true
		seenMu.Unlock()
		delivered.Add(1)
	})

	var eps []*TCPEndpoint
	for i := 0; i < senders; i++ {
		ep, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps = append(eps, ep)
	}

	var wg sync.WaitGroup
	for s, ep := range eps {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ep *TCPEndpoint, s, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					msg := fmt.Sprintf("s%d-w%d-i%03d|%s", s, w, i, strings.Repeat("x", 100+i))
					if err := ep.Send(recv.Addr(), []byte(msg)); err != nil {
						t.Errorf("send %s: %v", msg, err)
						return
					}
				}
			}(ep, s, w)
		}
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < int64(total) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := delivered.Load(); got != int64(total) {
		t.Fatalf("delivered %d of %d frames", got, total)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	if len(seen) != total {
		t.Fatalf("distinct payloads %d of %d (frames corrupted or duplicated)", len(seen), total)
	}
}

// TestTCPSendAfterPeerRestart: a peer that dies and restarts on the same
// address must be reachable again. The failure mode this guards: the
// sender's cached outbound connection to the dead incarnation accepts its
// first write into the kernel buffer (the RST only surfaces on the write
// after), silently losing one frame — exactly the frame that grants a
// durably-restarted node its rejoin. The first incarnation's FIN evicts
// the connection, or the restarted peer's fresh inbound one supersedes
// it, whichever a's lanes see first.
func TestTCPSendAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	aGot := make(chan string, 8)
	a.SetHandler(func(_ string, p []byte) { aGot <- string(p) })

	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	b1Got := make(chan string, 8)
	b1.SetHandler(func(_ string, p []byte) { b1Got <- string(p) })

	// Establish (and cache) a's outbound connection to the first
	// incarnation.
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b1Got:
	case <-time.After(5 * time.Second):
		t.Fatal("first incarnation never received the frame")
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address and dial a — the rejoin pattern.
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2Got := make(chan string, 8)
	b2.SetHandler(func(_ string, p []byte) { b2Got <- string(p) })
	if err := b2.Send(a.Addr(), []byte("rejoining")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-aGot:
	case <-time.After(5 * time.Second):
		t.Fatal("a never received the restarted peer's frame")
	}

	// a's reply must reach the restarted incarnation, not vanish into the
	// stale cached socket.
	if err := a.Send(addr, []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b2Got:
		if got != "two" {
			t.Fatalf("restarted peer got %q, want %q", got, "two")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame to the restarted peer was lost")
	}
}

// TestTCPSendAfterPeerRestartIsDelivered: the same restart, but the new
// incarnation never dials the sender first, so nothing but the peer's
// FIN tells the sender its cached connection is dead. A Send that
// returns nil must have reached the new listener, not gone into the dead
// socket's kernel buffer and vanished. Closing the endpoints must also
// stop every read lane.
func TestTCPSendAfterPeerRestartIsDelivered(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	b1Got := make(chan string, 1)
	b1.SetHandler(func(_ string, p []byte) { b1Got <- string(p) })
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b1Got:
	case <-time.After(5 * time.Second):
		t.Fatal("first incarnation never received the frame")
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	// The FIN reaches a's lane asynchronously; wait for the eviction it
	// causes rather than racing it.
	cached := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.conns[addr] != nil
	}
	for deadline := time.Now().Add(5 * time.Second); cached(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connection to the closed peer is still cached: nothing reads it for FIN")
		}
	}

	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	b2Got := make(chan string, 1)
	b2.SetHandler(func(_ string, p []byte) { b2Got <- string(p) })
	if err := a.Send(addr, []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b2Got:
		if got != "two" {
			t.Fatalf("restarted peer got %q, want %q", got, "two")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send returned nil but the restarted peer received nothing")
	}

	a.Close()
	b2.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the endpoints existed", runtime.NumGoroutine(), baseline)
		}
	}
}
