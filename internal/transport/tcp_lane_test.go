package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// The lane reader (laneReader) borrows a pooled buffer only while it
// reads or holds part of a frame. These tests feed it byte streams cut
// at every awkward place through a raw socket and check what reaches the
// handler, and that no buffer is left borrowed afterwards.

func readBufsHeld(e *TCPEndpoint) int64 {
	return e.Metrics().Snapshot().Gauges["tcp_read_bufs_held"]
}

// rawPeer dials e without an endpoint of its own: the test writes every
// byte, the hello included.
func rawPeer(t *testing.T, e *TCPEndpoint) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collect installs a handler on e that forwards each (from, payload copy).
// The channel has room for every frame a test sends, so the handler never
// blocks the lane.
func collect(e *TCPEndpoint) chan [2]string {
	got := make(chan [2]string, 64)
	e.SetHandler(func(from string, p []byte) { got <- [2]string{from, string(p)} })
	return got
}

func expectFrames(t *testing.T, got chan [2]string, from string, want ...[]byte) {
	t.Helper()
	for i, w := range want {
		select {
		case g := <-got:
			if g[0] != from || g[1] != string(w) {
				t.Fatalf("frame %d: got %d bytes from %q, want the %d sent from %q", i, len(g[1]), g[0], len(w), from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d (%d bytes) never arrived", i, len(w))
		}
	}
}

// TestLaneOneBytePerWrite: the hello and the frames after it, written one
// byte per Write, arrive whole, in order and from the hello's address.
func TestLaneOneBytePerWrite(t *testing.T) {
	e := listenT(t)
	got := collect(e)
	c := rawPeer(t, e)
	const peer = "127.0.0.1:9"
	frames := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte("x"), 300), []byte("four")}
	stream := appendFrame(nil, []byte(peer))
	for _, f := range frames {
		stream = appendFrame(stream, f)
	}
	for i := range stream {
		if _, err := c.Write(stream[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i < 64 {
			time.Sleep(time.Millisecond) // keep the hello and first frame in separate reads
		}
	}
	expectFrames(t, got, peer, frames...)
	waitFor(t, "the lane to give its buffer back", func() bool { return readBufsHeld(e) == 0 })
}

// TestLaneHeaderSplitFromBody: a lane that has read a frame's header, or
// part of it, and found the socket empty parks holding its buffer, then
// completes the frame from the next read.
func TestLaneHeaderSplitFromBody(t *testing.T) {
	e := listenT(t)
	got := collect(e)
	c := rawPeer(t, e)
	const peer = "127.0.0.1:9"
	if _, err := c.Write(appendFrame(nil, []byte(peer))); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("b"), 500)
	frame := appendFrame(nil, body)
	for _, cut := range []int{2, 4, 5} { // inside the header, at its end, one body byte in
		if _, err := c.Write(frame[:cut]); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the lane to park on a partial frame", func() bool { return readBufsHeld(e) == 1 })
		time.Sleep(5 * time.Millisecond)
		if _, err := c.Write(frame[cut:]); err != nil {
			t.Fatal(err)
		}
		expectFrames(t, got, peer, body)
		waitFor(t, "the lane to give its buffer back", func() bool { return readBufsHeld(e) == 0 })
	}
}

// TestLaneFramesBeyondThePooledBuffer: a frame larger than the pooled
// buffer, and one larger than the pool keeps, arriving in pieces between
// small frames, grow the borrowed buffer and come out intact; the buffer
// is back in the pool once they are through.
func TestLaneFramesBeyondThePooledBuffer(t *testing.T) {
	e := listenT(t)
	got := collect(e)
	c := rawPeer(t, e)
	const peer = "127.0.0.1:9"
	payload := func(n, seed int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*31 + seed)
		}
		return p
	}
	frames := [][]byte{payload(10, 1), payload(3*pooledFrameBuf+7, 2), payload(20, 3), payload(maxPooledFrame+1, 4), payload(30, 5)}
	stream := appendFrame(nil, []byte(peer))
	for _, f := range frames {
		stream = appendFrame(stream, f)
	}
	for len(stream) > 0 {
		n := min(len(stream), 1500)
		if _, err := c.Write(stream[:n]); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
	}
	for i, w := range frames {
		select {
		case g := <-got:
			if !bytes.Equal([]byte(g[1]), w) {
				t.Fatalf("frame %d: got %d bytes, want the %d sent", i, len(g[1]), len(w))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d (%d bytes) never arrived", i, len(w))
		}
	}
	waitFor(t, "the lane to give its buffer back", func() bool { return readBufsHeld(e) == 0 })
}

// TestLaneEOFMidFrame: a peer that closes in the middle of a frame ends
// the lane; the partial frame is not delivered and the buffer it sat in
// goes back.
func TestLaneEOFMidFrame(t *testing.T) {
	e := listenT(t)
	got := collect(e)
	c := rawPeer(t, e)
	const peer = "127.0.0.1:9"
	stream := appendFrame(appendFrame(nil, []byte(peer)), []byte("whole"))
	partial := appendFrame(nil, bytes.Repeat([]byte("p"), 100))
	if _, err := c.Write(append(stream, partial[:40]...)); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, got, peer, []byte("whole"))
	waitFor(t, "the lane to park on the partial frame", func() bool { return readBufsHeld(e) == 1 })
	c.Close()
	waitFor(t, "the lane to exit", func() bool { return e.Metrics().Snapshot().Gauges["tcp_open_conns"] == 0 })
	select {
	case g := <-got:
		t.Fatalf("delivered %d bytes of a frame cut short", len(g[1]))
	case <-time.After(50 * time.Millisecond):
	}
	if n := readBufsHeld(e); n != 0 {
		t.Fatalf("%d read buffers still held after the lane exited", n)
	}
}

// TestLanesHoldNoBufferWhenQuiet: after a burst over many connections —
// small frames, frames beyond the pooled size, concurrent senders — goes
// quiet, no lane holds a read buffer.
func TestLanesHoldNoBufferWhenQuiet(t *testing.T) {
	const peers, frames = 8, 200
	eps := make([]*TCPEndpoint, peers)
	var delivered sync.WaitGroup
	delivered.Add(peers * (peers - 1) * frames)
	for i := range eps {
		eps[i] = listenT(t)
		eps[i].SetHandler(func(string, []byte) { delivered.Done() })
	}
	var send sync.WaitGroup
	for i, a := range eps {
		for j, b := range eps {
			if i == j {
				continue
			}
			send.Add(1)
			go func(a, b *TCPEndpoint, seed int) {
				defer send.Done()
				for k := 0; k < frames; k++ {
					n := (k*seed*37)%300 + 1
					if k%50 == 0 {
						n = 2*pooledFrameBuf + k
					}
					if err := a.Send(b.Addr(), bytes.Repeat([]byte{byte(k)}, n)); err != nil {
						t.Error(err)
						return
					}
				}
			}(a, b, i*peers+j)
		}
	}
	send.Wait()
	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the burst was not delivered")
	}
	waitFor(t, "every lane to give its buffer back", func() bool {
		for _, e := range eps {
			if readBufsHeld(e) != 0 {
				return false
			}
		}
		return true
	})
	var lanes int64
	for _, e := range eps {
		lanes += e.Metrics().Snapshot().Gauges["tcp_open_conns"]
	}
	if lanes < peers*(peers-1)/2 {
		t.Fatalf("%d lanes open, want at least one per peer pair (%d)", lanes, peers*(peers-1)/2)
	}
}
