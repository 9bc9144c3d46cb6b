package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedConn is a socket whose first Write blocks until the gate opens or
// the connection closes, so that every Send behind it waits on the
// connection's writer lock: a deterministic stalled write.
type gatedConn struct {
	net.Conn               // the real socket the writes go on to
	gate     chan struct{} // closed to release the first Write
	closed   chan struct{} // closed by Close
	once     sync.Once
	started  atomic.Bool // the first Write has begun
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if !g.started.Swap(true) {
		select {
		case <-g.gate:
		case <-g.closed:
		}
	}
	select {
	case <-g.closed:
		return 0, net.ErrClosed
	default:
		return g.Conn.Write(p)
	}
}

func (g *gatedConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return g.Conn.Close()
}

// gatedRoute makes a gatedConn snd's connection to recv: it dials recv and
// writes snd's hello itself, as dial would, and books the connection as
// open so that snd.Close closes it.
func gatedRoute(t *testing.T, snd, recv *TCPEndpoint) *gatedConn {
	t.Helper()
	nc, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(snd.hello); err != nil {
		t.Fatal(err)
	}
	g := &gatedConn{Conn: nc, gate: make(chan struct{}), closed: make(chan struct{})}
	c := &tcpConn{c: g, peer: recv.Addr()}
	snd.mu.Lock()
	snd.conns[c.peer], snd.open[c] = c, struct{}{}
	snd.mu.Unlock()
	return g
}

// stallSenders starts senders goroutines that each Send perSender frames
// to recv over g, waits until the first Write is stalled and every sender
// has begun, and returns a channel that receives each sender's first
// error (nil if all its Sends succeeded) once it is done.
func stallSenders(snd, recv *TCPEndpoint, g *gatedConn, senders, perSender int) chan error {
	errs := make(chan error, senders)
	var begun sync.WaitGroup
	begun.Add(senders)
	for s := range senders {
		go func() {
			begun.Done()
			for i := range perSender {
				if err := snd.Send(recv.Addr(), writerFrame(s, i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	begun.Wait()
	for !g.started.Load() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the other senders reach the lock
	return errs
}

// writerFrame is sender s's i-th frame: its header, then filler bytes that
// are a function of (s, i), so a torn or spliced frame shows.
func writerFrame(s, i int) []byte {
	f := fmt.Appendf(nil, "%02d-%04d|", s, i)
	for len(f) < 200 {
		f = append(f, byte('a'+(s+i+len(f))%26))
	}
	return f
}

// TestTCPStalledWriteReleasesWaiters: while one Send's Write is stalled,
// the Sends queued behind the connection's writer lock wait. Released,
// every frame arrives whole and each sender's frames in its own order;
// closed instead, every waiting Send returns an error and no goroutine is
// left behind.
func TestTCPStalledWriteReleasesWaiters(t *testing.T) {
	const senders, perSender = 8, 50

	t.Run("released", func(t *testing.T) {
		recv, snd := listenT(t), listenT(t)
		var mu sync.Mutex
		next := make(map[int]int) // sender -> next expected sequence
		var got, bad atomic.Int64
		recv.SetHandler(func(_ string, p []byte) {
			var s, i int
			if _, err := fmt.Sscanf(string(p), "%02d-%04d|", &s, &i); err != nil || !bytes.Equal(p, writerFrame(s, i)) {
				bad.Add(1)
			} else {
				mu.Lock()
				if next[s] != i {
					bad.Add(1)
				}
				next[s] = i + 1
				mu.Unlock()
			}
			got.Add(1)
		})
		g := gatedRoute(t, snd, recv)
		errs := stallSenders(snd, recv, g, senders, perSender)
		if n := got.Load(); n != 0 {
			t.Fatalf("%d frames arrived past a stalled write", n)
		}
		close(g.gate)
		for range senders {
			if err := <-errs; err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		waitFor(t, "every frame", func() bool { return got.Load() == senders*perSender })
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d of %d frames torn or out of their sender's order", n, senders*perSender)
		}
	})

	t.Run("closed", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		recv, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		snd, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		recv.SetHandler(func(string, []byte) {})
		g := gatedRoute(t, snd, recv)
		errs := stallSenders(snd, recv, g, senders, perSender)
		snd.Close()
		for range senders {
			select {
			case err := <-errs:
				if err == nil {
					t.Fatal("a Send waiting behind a closed connection succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a Send waiting behind a closed connection never returned")
			}
		}
		recv.Close()
		waitFor(t, "the goroutine baseline", func() bool { return runtime.NumGoroutine() <= baseline })
	})
}
