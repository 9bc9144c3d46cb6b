package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func listenT(t *testing.T) *TCPEndpoint {
	t.Helper()
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func counter(e *TCPEndpoint, name string) uint64 {
	return e.Metrics().Snapshot().Counters[name]
}

func sumCounter(eps []*TCPEndpoint, name string) (n uint64) {
	for _, e := range eps {
		n += counter(e, name)
	}
	return n
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestTCPReplyReusesInboundConn: the answer to a frame travels back on
// the socket the frame came in on. The replying side never dials.
func TestTCPReplyReusesInboundConn(t *testing.T) {
	a, b := listenT(t), listenT(t)
	got := make(chan string, 1)
	a.SetHandler(func(from string, p []byte) { got <- from + " " + string(p) })
	b.SetHandler(func(from string, p []byte) {
		if err := b.Send(from, append([]byte("re:"), p...)); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		if want := b.Addr() + " re:ping"; g != want {
			t.Fatalf("a got %q, want %q", g, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
	if d := counter(b, "tcp_dials_total"); d != 0 {
		t.Fatalf("b dialled %d connections to answer on one it already had", d)
	}
	if d, acc := counter(a, "tcp_dials_total"), counter(a, "tcp_accepts_total"); d != 1 || acc != 0 {
		t.Fatalf("a dialled %d and accepted %d connections, want 1 and 0", d, acc)
	}
	for _, e := range []*TCPEndpoint{a, b} {
		if n := e.Metrics().Snapshot().Gauges["tcp_open_conns"]; n != 1 {
			t.Fatalf("tcp_open_conns = %d on %s, want 1", n, e.Addr())
		}
	}
}

// TestTCPSteadyStateDialsBounded: 8 endpoints exchange a request and its
// reply over every pair, 200 times, the two sides taking turns to ask. A
// pair costs one dial, made in the first round, for as long as both live.
func TestTCPSteadyStateDialsBounded(t *testing.T) {
	const n, rounds = 8, 200
	const pairs = n * (n - 1) / 2
	eps := make([]*TCPEndpoint, n)
	var replies atomic.Int64
	for i := range eps {
		ep := listenT(t)
		eps[i] = ep
		ep.SetHandler(func(from string, p []byte) {
			if p[0] == 'q' {
				if err := ep.Send(from, []byte("r")); err != nil {
					t.Errorf("reply %s -> %s: %v", ep.Addr(), from, err)
				}
				return
			}
			replies.Add(1)
		})
	}
	var afterFirst uint64
	for r := 1; r <= rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				from, to := eps[i], eps[j]
				if r%2 == 0 {
					from, to = to, from
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := from.Send(to.Addr(), []byte("q")); err != nil {
						t.Errorf("round %d: request %s -> %s: %v", r, from.Addr(), to.Addr(), err)
					}
				}()
			}
		}
		wg.Wait()
		waitFor(t, fmt.Sprintf("round %d's replies", r), func() bool { return replies.Load() == int64(r*pairs) })
		if t.Failed() {
			return
		}
		if r == 1 {
			afterFirst = sumCounter(eps, "tcp_dials_total")
		}
	}
	dials := sumCounter(eps, "tcp_dials_total")
	if dials > 2*pairs {
		t.Fatalf("%d dials for %d pairs, want <= %d", dials, pairs, 2*pairs)
	}
	if dials != afterFirst {
		t.Fatalf("dials grew from %d after round 1 to %d after round %d", afterFirst, dials, rounds)
	}
	if re := sumCounter(eps, "tcp_conn_refresh_total"); re > pairs {
		t.Fatalf("%d connections superseded, want <= %d", re, pairs)
	}
}

// TestTCPSimultaneousDial: both sides of a pair that has no connection yet
// send at the same instant, so both dial. Neither connection may be torn
// down under the other side's feet: every frame arrives once and after
// the first round nobody dials again. Frames are handled in order per
// connection; the first round's may be split over the two connections,
// but from then on each side's route is settled, so a sender's frames
// must be handled in send order.
func TestTCPSimultaneousDial(t *testing.T) {
	const rounds, perRound = 100, 8
	a, b := listenT(t), listenT(t)
	type book struct {
		mu   sync.Mutex
		seen map[uint32]bool
		last uint32
		n    atomic.Int64
	}
	var books [2]book
	for i, ep := range []*TCPEndpoint{a, b} {
		bk := &books[i]
		bk.seen = map[uint32]bool{}
		ep.SetHandler(func(_ string, p []byte) {
			seq := binary.BigEndian.Uint32(p)
			bk.mu.Lock()
			if bk.seen[seq] {
				t.Errorf("frame %d delivered twice", seq)
			}
			bk.seen[seq] = true
			if seq >= perRound && seq < bk.last {
				t.Errorf("frame %d handled after frame %d of the same connection", seq, bk.last)
			}
			bk.last = max(bk.last, seq)
			bk.mu.Unlock()
			bk.n.Add(1)
		})
	}
	var afterFirst uint64
	for r := 0; r < rounds; r++ {
		barrier := make(chan struct{})
		var wg sync.WaitGroup
		for _, pair := range [][2]*TCPEndpoint{{a, b}, {b, a}} {
			wg.Add(1)
			go func(from, to *TCPEndpoint) {
				defer wg.Done()
				<-barrier
				var buf [4]byte
				for k := 0; k < perRound; k++ {
					binary.BigEndian.PutUint32(buf[:], uint32(r*perRound+k))
					if err := from.Send(to.Addr(), buf[:]); err != nil {
						t.Errorf("round %d: %v", r, err)
					}
				}
			}(pair[0], pair[1])
		}
		close(barrier)
		wg.Wait()
		want := int64((r + 1) * perRound)
		waitFor(t, fmt.Sprintf("round %d's frames", r), func() bool {
			return books[0].n.Load() == want && books[1].n.Load() == want
		})
		if t.Failed() {
			return
		}
		if r == 0 {
			afterFirst = counter(a, "tcp_dials_total") + counter(b, "tcp_dials_total")
		}
	}
	if d := counter(a, "tcp_dials_total") + counter(b, "tcp_dials_total"); d != afterFirst || d > 2 {
		t.Fatalf("%d dials after round 1, %d after round %d; want the same, at most 2", afterFirst, d, rounds)
	}
}

// TestTCPRestartWithoutFIN: a host that lost power sends neither FIN nor
// RST, so the sender's cached connection to it looks healthy for as long
// as the kernel's keep-alive takes. The old incarnation here is a raw
// listener that accepts, closes only the listener and keeps the accepted
// socket open. When the new incarnation dials in, its connection
// supersedes the cached one and the sender's next frame reaches it.
func TestTCPRestartWithoutFIN(t *testing.T) {
	a := listenT(t)
	aGot := make(chan string, 1)
	a.SetHandler(func(_ string, p []byte) { aGot <- string(p) })

	old, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := old.Addr().String()
	held := make(chan net.Conn, 1)
	go func() {
		c, err := old.Accept()
		if err != nil {
			t.Errorf("old incarnation: accept: %v", err)
		}
		held <- c
	}()
	if err := a.Send(addr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	zombie := <-held
	if zombie == nil {
		return
	}
	defer zombie.Close()
	old.Close() // the host is gone; its socket to a is not

	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2Got := make(chan string, 1)
	b2.SetHandler(func(_ string, p []byte) { b2Got <- string(p) })
	if err := b2.Send(a.Addr(), []byte("rejoining")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-aGot:
	case <-time.After(5 * time.Second):
		t.Fatal("a never received the restarted peer's frame")
	}
	if err := a.Send(addr, []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b2Got:
		if got != "two" {
			t.Fatalf("restarted peer got %q, want %q", got, "two")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame to the restarted peer went to the dead incarnation's socket")
	}
}

// TestTCPFrameSizesAroundReadBuffer: frames that fit the pooled buffer a
// lane borrows are read whole in one go and larger ones grow it; a stream
// that mixes both, with sizes on either side of the boundary, must arrive
// intact and in order.
func TestTCPFrameSizesAroundReadBuffer(t *testing.T) {
	a, b := listenT(t), listenT(t)
	sizes := []int{0, 1, pooledFrameBuf - 5, pooledFrameBuf - 4, pooledFrameBuf - 3, pooledFrameBuf, 3 * pooledFrameBuf, 64 << 10, 7, maxPooledFrame + 1, 100}
	payload := func(i, n int) []byte {
		p := make([]byte, n)
		for k := range p {
			p[k] = byte(i + k)
		}
		return p
	}
	got := make(chan []byte, len(sizes))
	b.SetHandler(func(_ string, p []byte) { got <- append([]byte(nil), p...) })
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			if err := a.Send(b.Addr(), payload(i, n)); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range sizes {
			select {
			case p := <-got:
				if !bytes.Equal(p, payload(i, n)) {
					t.Fatalf("round %d frame %d: got %d bytes, want the %d sent", round, i, len(p), n)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d frame %d (%d bytes) never arrived", round, i, n)
			}
		}
	}
}

// TestTCPConnectionWithoutHelloIsClosed: an accepted connection must open
// with a well-formed hello. One that does not is closed without a frame
// of it reaching the handler or the connection becoming anyone's route.
func TestTCPConnectionWithoutHelloIsClosed(t *testing.T) {
	a := listenT(t)
	a.SetHandler(func(from string, p []byte) { t.Errorf("handler got %q from %q", p, from) })
	for name, first := range map[string][]byte{
		"empty":     appendFrame(nil, nil),
		"no port":   appendFrame(nil, []byte("127.0.0.1")),
		"too long":  appendFrame(nil, append(bytes.Repeat([]byte("h"), maxHello), ":80"...)),
		"oversized": binary.BigEndian.AppendUint32(nil, maxFrame+1),
	} {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(appendFrame(first, []byte("payload"))); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// EOF, or a reset if the close found bytes still unread.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = c.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: connection still open (read: %v)", name, err)
		}
		c.Close()
	}
	waitFor(t, "the lanes to exit", func() bool { return a.Metrics().Snapshot().Gauges["tcp_open_conns"] == 0 })
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.conns) != 0 {
		t.Fatalf("%d routes cached from connections that never said hello", len(a.conns))
	}
}
