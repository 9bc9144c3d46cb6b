package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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
// (internal/node is; its read paths share an RWMutex).
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

	metrics *metrics.Registry
	em      endpointMetrics
}

// endpointMetrics caches the endpoint's instruments so the hot paths
// never touch the registry map. All fields are nil-safe no-ops when the
// registry is nil (they never are: ListenTCP always builds one —
// the per-event cost is a handful of atomic ops, measured <5% on the
// store benchmark).
type endpointMetrics struct {
	framesIn  *metrics.Counter // frames handed to the handler
	bytesIn   *metrics.Counter
	framesOut *metrics.Counter // frames written (or queued into a coalesced write)
	bytesOut  *metrics.Counter
	sendErrs  *metrics.Counter // Send calls that returned an error
	dials     *metrics.Counter // connections dialled
	accepts   *metrics.Counter // connections accepted
	refreshes *metrics.Counter // cached connections superseded by a fresh inbound one
	openConns *metrics.Gauge   // connections, dialled or accepted, whose lane is running

	// dispatchWait is the time an inbound frame waited for a dispatch
	// worker slot (the endpoint's lock-wait signal: it grows when
	// handlers outnumber workers). inflight is the number of handler
	// invocations running right now; queueBytes is the write-coalescing
	// backlog across connections (the dispatch-queue-depth gauges).
	dispatchWait *metrics.Histogram
	inflight     *metrics.Gauge
	queueBytes   *metrics.Gauge
}

func newEndpointMetrics(r *metrics.Registry) endpointMetrics {
	return endpointMetrics{
		framesIn:     r.Counter("tcp_frames_in_total"),
		bytesIn:      r.Counter("tcp_bytes_in_total"),
		framesOut:    r.Counter("tcp_frames_out_total"),
		bytesOut:     r.Counter("tcp_bytes_out_total"),
		sendErrs:     r.Counter("tcp_send_errors_total"),
		dials:        r.Counter("tcp_dials_total"),
		accepts:      r.Counter("tcp_accepts_total"),
		refreshes:    r.Counter("tcp_conn_refresh_total"),
		openConns:    r.Gauge("tcp_open_conns"),
		dispatchWait: r.Histogram("tcp_dispatch_wait_seconds", metrics.LatencyBuckets()),
		inflight:     r.Gauge("tcp_inflight_dispatches"),
		queueBytes:   r.Gauge("tcp_write_queue_bytes"),
	}
}

// tcpConn is one connection, dialled or accepted: a read lane (see
// TCPEndpoint.lane) and a writer with group-commit coalescing: the first
// sender to reach an idle connection writes its frame immediately and
// becomes the flusher; frames from senders that arrive while that write
// syscall is in flight accumulate in pending and are flushed in batches
// once it returns. Coalescing adds no latency when the connection is idle
// and batches exactly when the connection is the bottleneck.
//
// Each flush batch is capped at maxCoalesceBytes: the backlog is drained
// FIFO in bounded Writes rather than one unbounded Write, so a small
// frame queued behind a burst of large ones waits for at most one capped
// batch ahead of it, not for the entire backlog to hit the wire. (The
// unbounded window was the mixed-load tail-latency bug: 128 KiB store
// PUTs pooling in pending inflated a queued query's wait to the transfer
// time of the whole pool.)
type tcpConn struct {
	c  net.Conn
	em *endpointMetrics // owning endpoint's instruments (may be nil in tests)

	// peer is the other side's listen address: the address dialled, or
	// the one an accepted connection's hello announced (set by the lane
	// before it publishes the connection in conns).
	peer string

	mu       sync.Mutex // guards pending/flushing
	flushing bool
	pending  []pendingFrame
}

// pendingFrame is one queued frame awaiting a coalesced flush; done
// receives the outcome of the Write call that carried its bytes.
type pendingFrame struct {
	buf  []byte
	done chan error
}

// maxCoalesceBytes caps one coalesced flush batch. 64 KiB keeps the
// syscall amortisation of group commit (dozens of small frames per
// Write) while bounding how long any queued frame can be delayed by
// bytes ahead of it in the same backlog.
const maxCoalesceBytes = 64 << 10

func (cc *tcpConn) queueGauge() *metrics.Gauge {
	if cc.em == nil {
		return nil
	}
	return cc.em.queueBytes
}

// idle reports whether no write is in flight and none is queued.
func (cc *tcpConn) idle() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return !cc.flushing && len(cc.pending) == 0
}

// maxFrame is the largest accepted message frame (1 MiB); VoroNet views
// are O(1) so real frames are tiny.
const maxFrame = 1 << 20

// maxHello bounds the listen address a hello may carry (a DNS name is at
// most 253 bytes, a port 5).
const maxHello = 260

// frameBuf is a pooled frame buffer. Send encodes [length | payload] into
// one and blocks until the write carrying those bytes finished (directly
// or inside a coalesced flush batch), so the buffer can return to the
// pool the moment Send's outcome is known; a flusher flattens its batches
// into one, and a lane reads into one a frame too large for its read
// buffer. maxPooledFrame keeps the occasional MiB-sized value frame from
// pinning pool memory.
type frameBuf struct{ b []byte }

const maxPooledFrame = 1 << 18

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 2048)} }}

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		fb.b = make([]byte, 0, 2048)
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
	reg := metrics.NewRegistry()
	// GOMAXPROCS handler invocations at once across all connections, at
	// least 2 so a slow handler cannot monopolise the endpoint.
	workers := max(runtime.GOMAXPROCS(0), 2)
	ep := &TCPEndpoint{
		ln:      ln,
		addr:    ln.Addr().String(),
		sem:     make(chan struct{}, workers),
		conns:   make(map[string]*tcpConn),
		open:    make(map[*tcpConn]struct{}),
		metrics: reg,
		em:      newEndpointMetrics(reg),
	}
	ep.hello = appendFrame(nil, []byte(ep.addr))
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the listening address.
func (e *TCPEndpoint) Addr() string { return e.addr }

// Metrics returns the endpoint's instrument registry (frame and byte
// counters, dispatch-wait histogram, in-flight and write-queue gauges),
// for merging into a node's debug endpoint or a bench snapshot.
func (e *TCPEndpoint) Metrics() *metrics.Registry { return e.metrics }

// SetHandler installs the inbound handler.
func (e *TCPEndpoint) SetHandler(h Handler) { e.handler.Store(&h) }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.em.accepts.Inc()
		e.mu.Lock()
		ok := e.startLane(&tcpConn{c: nc, em: &e.em})
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
	e.em.openConns.Inc()
	e.wg.Add(1)
	go e.lane(c)
	return true
}

// laneReadBuf is the size of every lane's read buffer. Connections live
// as long as both peers do, so each side of each peer pair pays it for the
// life of the overlay: on the benchmark's tcp-get workload (256 peers, 8
// clients, ≈ 100-byte frames) peak memory is 56.7 MiB with bufio's
// default 4 KiB, 41.1 with 2 KiB, 32.9 with 1 KiB and 28.7 with 512 B, at
// the same throughput (46.9 MiB when connections were torn down as fast
// as they were made). 1 KiB holds whole every protocol message but a
// store record above ≈ 900 bytes; a frame that does not fit is read
// straight into a pooled buffer (readFrame).
const laneReadBuf = 1 << 10

// lane is c's ordered delivery lane: frames are handled inline, one at a
// time, in arrival order. The endpoint semaphore bounds concurrency
// across lanes and a handler that stalls blocks only this connection. It
// runs until the connection fails or either side closes it.
//
// An accepted connection's first frame is the dialler's hello, so the
// peer's address is fixed per connection — nothing later on the wire can
// change it — and the `from` string handed to the handler is allocated
// once. Together with in-place frame reads and the pooled send frames
// this makes the steady-state transport path allocation-free per message.
func (e *TCPEndpoint) lane(c *tcpConn) {
	defer e.wg.Done()
	defer e.em.openConns.Dec()
	defer e.evict(c)
	r := bufio.NewReaderSize(c.c, laneReadBuf)
	if c.peer == "" { // accepted: the hello names the peer
		err := readFrame(r, func(hello []byte) {
			if len(hello) <= maxHello {
				c.peer = string(hello)
			}
		})
		if err != nil {
			return
		}
		if _, _, err := net.SplitHostPort(c.peer); err != nil {
			return // not a hello: no address to answer on
		}
		e.adopt(c)
	}
	deliver := func(payload []byte) { e.dispatch(c.peer, payload) }
	for readFrame(r, deliver) == nil {
	}
}

// adopt makes the accepted connection c the route to the peer its hello
// named. If another connection to that peer is cached, c supersedes it
// while it is idle: the peer dialling anew hints that it may have
// restarted without our lane on the old socket having seen a FIN or RST
// (a host that lost power sends neither), and an idle connection has
// nothing to lose. A connection mid-write is left alone: if it really is
// dead the write fails and Send's error path evicts it anyway.
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
		if !old.idle() {
			return
		}
		e.em.refreshes.Inc()
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
	e.em.dispatchWait.Observe(time.Since(wait).Seconds())
	e.em.framesIn.Inc()
	e.em.bytesIn.Add(uint64(len(payload)))
	e.em.inflight.Inc()
	(*h)(from, payload)
	e.em.inflight.Dec()
	<-e.sem
}

// Send writes one frame on the connection to the peer, dialling only if
// neither side has yet. Concurrent Sends are safe: frames to the same
// peer never interleave their bytes, and frames queued while another
// frame's write syscall is in flight are flushed together with a single
// Write (group commit). Send returns once its own frame has been written
// (or the coalesced write carrying it failed).
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
	// Either write returns only after the Write call that carried this
	// frame's bytes finished (its own, or a flush batch that copied them
	// out first), so the buffer is reusable on return.
	if dialled {
		// A connection is born with its write flag held by the Send that
		// dialled it, so the hello leads whatever else is sent on it, in
		// one Write with this frame.
		fb.b = appendFrame(append(fb.b, e.hello...), payload)
		err = c.writeAsFlusher(fb.b)
	} else {
		fb.b = appendFrame(fb.b, payload)
		err = c.writeCoalesced(fb.b)
	}
	putFrameBuf(fb)
	if err != nil {
		e.em.sendErrs.Inc()
		e.evict(c)
		return err
	}
	e.em.framesOut.Inc()
	e.em.bytesOut.Add(uint64(len(payload)))
	return nil
}

// dial connects to the peer and caches the connection. If one appeared in
// the meantime — another Send dialled, or the peer reached us first — the
// new socket is dropped unused and that connection is returned, with mine
// false.
func (e *TCPEndpoint) dial(to string) (c *tcpConn, mine bool, err error) {
	nc, err := net.Dial("tcp", to)
	if err != nil {
		e.em.sendErrs.Inc()
		return nil, false, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	e.em.dials.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing := e.conns[to]; existing != nil {
		nc.Close()
		return existing, false, nil
	}
	c = &tcpConn{c: nc, em: &e.em, peer: to, flushing: true}
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

// writeCoalesced writes one frame with group commit (see tcpConn). It
// returns the error of the Write call that carried this frame's bytes.
func (cc *tcpConn) writeCoalesced(frame []byte) error {
	cc.mu.Lock()
	if cc.flushing {
		// A write is in flight: queue behind it and wait for the flush
		// batch that carries our bytes.
		done := make(chan error, 1)
		cc.pending = append(cc.pending, pendingFrame{buf: frame, done: done})
		cc.queueGauge().Add(int64(len(frame)))
		cc.mu.Unlock()
		return <-done
	}
	cc.flushing = true
	cc.mu.Unlock()
	return cc.writeAsFlusher(frame)
}

// writeAsFlusher writes frame for the caller that holds the flushing flag,
// and hands the flag on.
func (cc *tcpConn) writeAsFlusher(frame []byte) error {
	_, err := cc.c.Write(frame)
	// Anything that queued up behind us is flushed by a dedicated
	// goroutine, not by looping here: this goroutine is usually a
	// connection lane's handler, and under sustained load the pending
	// buffer can refill faster than it drains — looping would hold this
	// sender (and its lane, and a dispatch-worker slot) captive
	// indefinitely. At most one flushPending goroutine exists per
	// connection, because flushing stays true until it drains.
	cc.mu.Lock()
	if len(cc.pending) == 0 {
		cc.flushing = false
		cc.mu.Unlock()
		return err
	}
	cc.mu.Unlock()
	go cc.flushPending()
	return err
}

// flushPending drains the pending queue batch by batch: each batch is the
// longest FIFO prefix within maxCoalesceBytes (always at least one frame,
// so an oversized frame still goes out alone), sent with one Write whose
// outcome every frame in the batch observes. It runs until the queue is
// empty and then releases the flushing flag.
func (cc *tcpConn) flushPending() {
	// The batch scratch is borrowed for the drain, not kept on the
	// connection, which outlives its bursts by hours.
	scratch := framePool.Get().(*frameBuf)
	defer putFrameBuf(scratch)
	for {
		cc.mu.Lock()
		if len(cc.pending) == 0 {
			cc.flushing = false
			cc.mu.Unlock()
			return
		}
		batch, bytes := 1, len(cc.pending[0].buf)
		for batch < len(cc.pending) && bytes+len(cc.pending[batch].buf) <= maxCoalesceBytes {
			bytes += len(cc.pending[batch].buf)
			batch++
		}
		frames := cc.pending[:batch:batch]
		if cc.pending = cc.pending[batch:]; len(cc.pending) == 0 {
			cc.pending = nil // release the backing array between bursts
		}
		cc.queueGauge().Add(-int64(bytes))
		cc.mu.Unlock()

		// Flatten into the scratch: one Write per batch keeps group
		// commit's syscall economics without net.Buffers (whose writev
		// fast path only exists for real TCP conns).
		buf := scratch.b[:0]
		for _, f := range frames {
			buf = append(buf, f.buf...)
		}
		_, werr := cc.c.Write(buf)
		scratch.b = buf
		for _, f := range frames {
			f.done <- werr
		}
	}
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

// readFrame reads one frame and calls fn with its payload, which is valid
// only during the call (the Handler payload-lifetime contract): a frame
// that fits r's buffer is handed over where it lies and discarded after,
// a larger one is read into a pooled buffer that goes back when fn
// returns.
func readFrame(r *bufio.Reader, fn func(payload []byte)) error {
	hdr, err := r.Peek(4)
	if err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return errors.New("transport: oversized frame")
	}
	size := 4 + int(n)
	if size <= r.Size() {
		b, err := r.Peek(size)
		if err != nil {
			return err
		}
		fn(b[4:])
		_, err = r.Discard(size)
		return err
	}
	if _, err := r.Discard(4); err != nil {
		return err
	}
	fb := framePool.Get().(*frameBuf)
	defer putFrameBuf(fb)
	if cap(fb.b) < int(n) {
		fb.b = make([]byte, n)
	}
	b := fb.b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	fn(b)
	return nil
}

var _ Endpoint = (*TCPEndpoint)(nil)
