package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voronet/internal/metrics"
)

// TCPEndpoint is a transport endpoint over TCP. There is one duplex
// connection per peer pair: whichever side first has something to say
// dials and announces its listen address in a hello frame, and from then
// on both sides send on that socket — a reply, an ack or a replica push
// to a peer that already reached us costs no dial. After the hello every
// message is one length-prefixed frame.
//
// Every connection, dialled or accepted, has an ordered read lane: its
// goroutine invokes the handler inline, one frame at a time in arrival
// order, with a semaphore bounding how many handler invocations run at
// once across connections. Messages on one connection are therefore
// handled strictly FIFO while independent peers' messages are handled in
// parallel; a slow handler stops frame reads on its own connection only
// (the kernel socket buffer and TCP flow control are the bounded mailbox),
// never its peers'. The handler must be safe for concurrent invocation
// (internal/node is; its read paths take no lock).
//
// The lane is also what notices the peer's FIN or RST and drops the
// connection from the cache; without that a frame written to a connection
// whose peer has gone would succeed into the kernel buffer and vanish.
type TCPEndpoint struct {
	ln      net.Listener
	addr    string        // ln's address: what peers dial and what the hello carries
	hello   []byte        // the frame a dialled connection opens with
	sem     chan struct{} // bounds concurrent handler invocations
	handler atomic.Pointer[Handler]

	mu     sync.Mutex            // guards conns, open and closed
	conns  map[string]*tcpConn   // the connection Send uses for each peer
	open   map[*tcpConn]struct{} // every connection not yet closed by us
	closed bool
	wg     sync.WaitGroup // accept loop and read lanes

	reg *metrics.Registry // endpointLayout's instruments
}

// endpointLayout declares an endpoint's instruments, each once, below, so
// that every endpoint of the process shares their names and bounds and
// reaches them by ID (see metrics.Layout).
var endpointLayout metrics.Layout

var (
	framesInTotal   = endpointLayout.Counter("tcp_frames_in_total") // frames handed to the handler
	bytesInTotal    = endpointLayout.Counter("tcp_bytes_in_total")
	framesOutTotal  = endpointLayout.Counter("tcp_frames_out_total") // frames written
	bytesOutTotal   = endpointLayout.Counter("tcp_bytes_out_total")
	sendErrorsTotal = endpointLayout.Counter("tcp_send_errors_total")  // Send calls that returned an error
	dialsTotal      = endpointLayout.Counter("tcp_dials_total")        // connections dialled
	acceptsTotal    = endpointLayout.Counter("tcp_accepts_total")      // connections accepted
	refreshTotal    = endpointLayout.Counter("tcp_conn_refresh_total") // cached connections superseded by a fresh inbound one
	openConns       = endpointLayout.Gauge("tcp_open_conns")           // connections, dialled or accepted, whose lane is running
	readBufs        = endpointLayout.Gauge("tcp_read_bufs_held")       // read buffers lanes hold (laneReader): ≈ 0 while idle

	// dispatchWaitSeconds is the time an inbound frame waited for a
	// dispatch worker slot (the endpoint's lock-wait signal: it grows
	// when handlers outnumber workers). inflightDispatches is the number
	// of handler invocations running right now.
	dispatchWaitSeconds = endpointLayout.Histogram("tcp_dispatch_wait_seconds", metrics.LatencyBuckets())
	inflightDispatches  = endpointLayout.Gauge("tcp_inflight_dispatches")
)

// tcpConn is one connection, dialled or accepted: a read lane (see
// TCPEndpoint.lane) and one writer at a time. A Send holds mu across the
// single Write of its frame, so frames never interleave their bytes and a
// Send returns after the Write that carried them. Few senders ever share
// a connection — an endpoint runs at most max(GOMAXPROCS, 2) handlers at
// once — so a sender rarely finds the lock taken, and one that does waits
// for one frame's Write.
type tcpConn struct {
	c net.Conn

	// peer is the other side's listen address: the address dialled, or
	// the one an accepted connection's hello announced (set by the lane
	// before it publishes the connection in conns).
	peer string

	mu sync.Mutex // held across each frame's Write
}

// maxFrame is the largest accepted message frame (1 MiB); VoroNet views
// are O(1) so real frames are tiny.
const maxFrame = 1 << 20

// maxHello bounds the listen address a hello may carry (a DNS name is at
// most 253 bytes, a port 5).
const maxHello = 260

// frameBuf is a pooled frame buffer. Send encodes [length | payload] into
// one and writes it before returning, so the buffer can return to the
// pool the moment Send's outcome is known; a lane borrows one for each
// read (laneReader).
// maxPooledFrame keeps the occasional MiB-sized value frame from pinning
// pool memory.
type frameBuf struct{ b []byte }

// pooledFrameBuf is a fresh frameBuf's capacity: it holds whole every
// protocol message of the benchmark's workloads, the 1 KiB store PUT and
// its replica push included.
const pooledFrameBuf = 2 << 10

const maxPooledFrame = 1 << 18

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, pooledFrameBuf)} }}

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		fb.b = make([]byte, 0, pooledFrameBuf)
	}
	framePool.Put(fb)
}

// ListenTCP starts an endpoint on the given address ("127.0.0.1:0" picks a
// free port).
func ListenTCP(addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	// GOMAXPROCS handler invocations at once across all connections, at
	// least 2 so a slow handler cannot monopolise the endpoint.
	workers := max(runtime.GOMAXPROCS(0), 2)
	ep := &TCPEndpoint{
		ln:    ln,
		addr:  ln.Addr().String(),
		sem:   make(chan struct{}, workers),
		conns: make(map[string]*tcpConn),
		open:  make(map[*tcpConn]struct{}),
		reg:   endpointLayout.NewRegistry(),
	}
	ep.hello = appendFrame(nil, []byte(ep.addr))
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the listening address.
func (e *TCPEndpoint) Addr() string { return e.addr }

// Metrics returns the endpoint's instrument registry (frame and byte
// counters, dispatch-wait histogram, in-flight and open-connection gauges),
// for merging into a node's debug endpoint or a bench snapshot.
func (e *TCPEndpoint) Metrics() *metrics.Registry { return e.reg }

// SetHandler installs the inbound handler.
func (e *TCPEndpoint) SetHandler(h Handler) { e.handler.Store(&h) }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.reg.CounterAt(acceptsTotal).Inc()
		e.mu.Lock()
		ok := e.startLane(&tcpConn{c: nc})
		e.mu.Unlock()
		if !ok {
			return
		}
	}
}

// startLane books c as open and starts its read lane; on a closed
// endpoint it closes c instead and reports false. Called with e.mu held.
func (e *TCPEndpoint) startLane(c *tcpConn) bool {
	if e.closed {
		c.c.Close()
		return false
	}
	e.open[c] = struct{}{}
	e.reg.GaugeAt(openConns).Inc()
	e.wg.Add(1)
	go e.lane(c)
	return true
}

// lane is c's ordered delivery lane: frames are handled inline, one at a
// time, in arrival order. The endpoint semaphore bounds concurrency
// across lanes and a handler that stalls blocks only this connection. It
// runs until the connection fails or either side closes it.
//
// An accepted connection's first frame is the dialler's hello, so the
// peer's address is fixed per connection — nothing later on the wire can
// change it — and the `from` string handed to the handler is allocated
// once. Together with the borrowed read buffer (laneReader) and the
// pooled send frames this makes the steady-state transport path
// allocation-free per message.
func (e *TCPEndpoint) lane(c *tcpConn) {
	defer e.wg.Done()
	defer e.reg.GaugeAt(openConns).Dec()
	defer e.evict(c)
	l, err := newLaneReader(c.c, e.reg.GaugeAt(readBufs))
	if err != nil {
		return
	}
	defer l.drop()
	hello := c.peer == "" // accepted: the first frame names the peer
	for {
		if err := l.rc.Read(l.read); err != nil || l.err != nil {
			return
		}
		for {
			payload, err := l.next()
			if err != nil {
				return
			}
			if payload == nil {
				break
			}
			if !hello {
				e.dispatch(c.peer, payload)
				continue
			}
			if len(payload) > maxHello {
				return
			}
			peer := string(payload)
			if _, _, err := net.SplitHostPort(peer); err != nil {
				return // not a hello: no address to answer on
			}
			c.peer, hello = peer, false
			e.adopt(c)
		}
	}
}

// adopt makes the accepted connection c the route to the peer its hello
// named. If another connection to that peer is cached, c supersedes it
// while it is idle: the peer dialling anew hints that it may have
// restarted without our lane on the old socket having seen a FIN or RST
// (a host that lost power sends neither), and an idle connection has
// nothing to lose. A connection whose writer lock is held is left alone:
// if it really is dead the write fails and Send's error path evicts it
// anyway.
//
// The superseded connection is not closed here. It may be perfectly
// healthy — when both sides dial at once each adopts the other's — and
// closing it would fail or re-dial the next send of the peer that has
// just cached it, which we would take as another restart hint, and so on
// for ever. Its lane keeps serving what arrives on it; the peer's FIN, or
// the TCP keep-alive Go enables on every connection, reaps it.
func (e *TCPEndpoint) adopt(c *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old := e.conns[c.peer]; old != nil {
		if !old.mu.TryLock() {
			return
		}
		old.mu.Unlock()
		e.reg.CounterAt(refreshTotal).Inc()
	}
	e.conns[c.peer] = c
}

// dispatch hands one inbound frame to the handler under the endpoint's
// concurrency bound.
func (e *TCPEndpoint) dispatch(from string, payload []byte) {
	h := e.handler.Load()
	if h == nil {
		return
	}
	// The wait for a dispatch slot is the endpoint's contention signal;
	// the gauge pair brackets the handler so /metrics shows live
	// concurrency.
	wait := time.Now()
	e.sem <- struct{}{}
	e.reg.HistogramAt(dispatchWaitSeconds).Observe(time.Since(wait).Seconds())
	e.reg.CounterAt(framesInTotal).Inc()
	e.reg.CounterAt(bytesInTotal).Add(uint64(len(payload)))
	e.reg.GaugeAt(inflightDispatches).Inc()
	(*h)(from, payload)
	e.reg.GaugeAt(inflightDispatches).Dec()
	<-e.sem
}

// Send writes one frame on the connection to the peer, dialling only if
// neither side has yet. Concurrent Sends are safe: each holds the
// connection's writer lock across the one Write of its frame, so frames to
// the same peer never interleave their bytes. Send returns once that Write
// returned, and never keeps the payload.
func (e *TCPEndpoint) Send(to string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	c := e.conns[to]
	e.mu.Unlock()
	var err error
	dialled := false
	if c == nil {
		if c, dialled, err = e.dial(to); err != nil {
			return err
		}
	}
	fb := framePool.Get().(*frameBuf)
	fb.b = fb.b[:0]
	if dialled {
		// A connection is born with its writer lock held by the Send that
		// dialled it, so the hello leads whatever else is sent on it, in
		// one Write with this frame.
		fb.b = append(fb.b, e.hello...)
	}
	fb.b = appendFrame(fb.b, payload)
	if !dialled {
		c.mu.Lock()
	}
	_, err = c.c.Write(fb.b)
	c.mu.Unlock()
	putFrameBuf(fb)
	if err != nil {
		e.reg.CounterAt(sendErrorsTotal).Inc()
		e.evict(c)
		return err
	}
	e.reg.CounterAt(framesOutTotal).Inc()
	e.reg.CounterAt(bytesOutTotal).Add(uint64(len(payload)))
	return nil
}

// dial connects to the peer and caches the connection, returning it with
// its writer lock held and mine true. If one appeared in the meantime —
// another Send dialled, or the peer reached us first — the new socket is
// dropped unused and that connection is returned unlocked, with mine
// false.
func (e *TCPEndpoint) dial(to string) (c *tcpConn, mine bool, err error) {
	nc, err := net.Dial("tcp", to)
	if err != nil {
		e.reg.CounterAt(sendErrorsTotal).Inc()
		return nil, false, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	e.reg.CounterAt(dialsTotal).Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing := e.conns[to]; existing != nil {
		nc.Close()
		return existing, false, nil
	}
	c = &tcpConn{c: nc, peer: to}
	c.mu.Lock()
	if !e.startLane(c) {
		return nil, false, ErrClosed
	}
	e.conns[to] = c
	return c, true, nil
}

// evict takes c out of the endpoint's books — it stops being the route to
// its peer, if it was — and closes it. A Send that already holds c fails
// its Write and reports the error to its caller; c's lane exits.
func (e *TCPEndpoint) evict(c *tcpConn) {
	e.mu.Lock()
	if e.conns[c.peer] == c {
		delete(e.conns, c.peer)
	}
	delete(e.open, c)
	e.mu.Unlock()
	c.c.Close()
}

// Close shuts the endpoint down, closing every connection and waiting for
// the accept loop and the read lanes to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	for c := range e.open {
		c.c.Close()
	}
	e.conns = map[string]*tcpConn{}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}

// Frame format: u32 payloadLen | payload. The first frame a dialler sends
// is its hello, whose payload is its listen address.

// appendFrame appends one whole frame to buf so it can be written with a
// single Write call.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// laneReader is a lane's read side. Connections live as long as both
// peers do and almost all of them are idle at any instant, so a lane owns
// no buffer. It borrows a pooled frameBuf for the read once the socket is
// readable, hands every whole frame in it to the handler where the frame
// lies — the Handler contract says a payload is valid only during the
// call — and reads on until the socket is drained. At the EAGAIN the
// buffer goes back to the pool unless bytes of an unfinished frame wait
// in it: only a lane in the middle of a frame keeps one across a wait.
// A frame that fits the pooled buffer costs one read; a larger one grows
// the borrowed buffer to its size, and putFrameBuf drops a growth above
// maxPooledFrame.
type laneReader struct {
	rc   syscall.RawConn
	held *metrics.Gauge // counts the borrowed buffer
	fb   *frameBuf      // borrowed; nil while parked without a partial frame
	r, w int            // fb.b[r:w] is read and not yet handed over
	// err is the outcome of the last read: io.EOF, or the socket error.
	err error
	// read is fill bound once, so that a read allocates nothing.
	read func(fd uintptr) bool
}

func newLaneReader(c net.Conn, held *metrics.Gauge) (*laneReader, error) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("transport: %T has no raw socket", c)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	l := &laneReader{rc: rc, held: held}
	l.read = l.fill
	return l, nil
}

// fill is the RawConn read callback: it reads what the socket holds into
// the free tail of the buffer, borrowing one first if need be. On EAGAIN
// it gives the buffer back unless a partial frame waits in it, and
// reports false, so the runtime parks the lane until the socket is
// readable and calls fill again.
func (l *laneReader) fill(fd uintptr) bool {
	if l.fb == nil {
		l.fb = framePool.Get().(*frameBuf)
		l.fb.b = l.fb.b[:cap(l.fb.b)]
		l.held.Inc()
	}
	for {
		n, err := syscall.Read(int(fd), l.fb.b[l.w:])
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			if l.r == l.w {
				l.drop()
			}
			return false
		case err != nil:
			l.err = err
		case n == 0:
			l.err = io.EOF
		default:
			l.w += n
		}
		return true
	}
}

// next returns the next whole frame's payload, valid until the following
// read, or nil when the buffer holds no whole frame (an empty frame's
// payload is empty, not nil). Then it makes room
// for the rest of a partial frame — moving it to the front of the
// buffer, or into a larger one — so that the next read has space.
func (l *laneReader) next() ([]byte, error) {
	if l.fb == nil {
		return nil, nil
	}
	buf := l.fb.b[l.r:l.w]
	if len(buf) == 0 {
		l.r, l.w = 0, 0
		return nil, nil
	}
	need := 4
	if len(buf) >= 4 {
		n := binary.BigEndian.Uint32(buf)
		if n > maxFrame {
			return nil, errors.New("transport: oversized frame")
		}
		need += int(n)
		if len(buf) >= need {
			l.r += need
			return buf[4:need], nil
		}
	}
	if l.r+need > len(l.fb.b) {
		if need > len(l.fb.b) {
			l.fb.b = make([]byte, need)
		}
		l.w = copy(l.fb.b, buf)
		l.r = 0
	}
	return nil, nil
}

// drop gives the buffer back to the pool.
func (l *laneReader) drop() {
	if l.fb != nil {
		putFrameBuf(l.fb)
		l.fb, l.r, l.w = nil, 0, 0
		l.held.Dec()
	}
}

var _ Endpoint = (*TCPEndpoint)(nil)
