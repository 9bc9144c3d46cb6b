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
	"time"

	"voronet/internal/metrics"
)

// TCPOptions tunes a TCP endpoint's dispatch. The zero value selects
// the default worker count.
type TCPOptions struct {
	// DispatchWorkers bounds how many handler invocations run at once
	// across all inbound connections; messages from one connection are
	// always handled in order, one at a time. <= 0 selects GOMAXPROCS
	// (at least 2, so a slow handler cannot monopolise the endpoint).
	DispatchWorkers int
}

func (o TCPOptions) workers() int {
	if o.DispatchWorkers > 0 {
		return o.DispatchWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// TCPEndpoint is a transport endpoint over TCP. Each message is a
// length-prefixed frame carrying the sender address and the payload.
// Connections are dialled on demand and cached.
//
// Inbound delivery is organised as per-peer ordered lanes: every inbound
// connection's read loop invokes the handler inline, one frame at a time
// in arrival order, with a semaphore bounding how many handler
// invocations run at once across connections. Messages from one peer are
// therefore handled strictly FIFO while independent peers' messages are
// handled in parallel; a slow handler stops frame reads on its own
// connection only (the kernel socket buffer and TCP flow control are the
// bounded mailbox), never its peers'. The handler must be safe for
// concurrent invocation (internal/node is; its read paths share an
// RWMutex).
//
// Outbound connections are write-only — a peer answers by dialling back —
// so each one has a watcher goroutine blocked in Read whose only job is
// to notice the peer's FIN or RST and evict the connection from the
// cache; without it a frame written to a connection whose peer has gone
// would succeed into the kernel buffer and vanish.
type TCPEndpoint struct {
	ln      net.Listener
	sem     chan struct{} // bounds concurrent handler invocations
	mu      sync.Mutex    // guards conns/inbound + handler installation
	conns   map[string]*tcpConn
	inbound map[net.Conn]struct{}
	handler Handler

	closed bool
	wg     sync.WaitGroup // accept loop, read loops, outbound watchers

	metrics *metrics.Registry
	em      endpointMetrics
}

// endpointMetrics caches the endpoint's instruments so the hot paths
// never touch the registry map. All fields are nil-safe no-ops when the
// registry is nil (they never are: ListenTCPOptions always builds one —
// the per-event cost is a handful of atomic ops, measured <5% on the
// store benchmark).
type endpointMetrics struct {
	framesIn  *metrics.Counter // frames handed to the handler
	bytesIn   *metrics.Counter
	framesOut *metrics.Counter // frames written (or queued into a coalesced write)
	bytesOut  *metrics.Counter
	sendErrs  *metrics.Counter // Send calls that returned an error
	dials     *metrics.Counter // outbound connections established
	accepts   *metrics.Counter // inbound connections accepted
	refreshes *metrics.Counter // cached outbound conns dropped on peer re-dial

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
		dispatchWait: r.Histogram("tcp_dispatch_wait_seconds", metrics.LatencyBuckets()),
		inflight:     r.Gauge("tcp_inflight_dispatches"),
		queueBytes:   r.Gauge("tcp_write_queue_bytes"),
	}
}

// tcpConn is one cached outbound connection with group-commit write
// coalescing: the first sender to reach an idle connection writes its
// frame immediately and becomes the flusher; frames from senders that
// arrive while that write syscall is in flight accumulate in pending and
// are flushed in batches once it returns. Coalescing adds no latency when
// the connection is idle and batches exactly when the connection is the
// bottleneck.
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

	mu       sync.Mutex // guards pending/flushing
	flushing bool
	pending  []pendingFrame
	wbuf     []byte // flusher-private batch scratch (single flusher at a time)
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

// MaxFrame is the largest accepted message frame (1 MiB); VoroNet views
// are O(1) so real frames are tiny.
const MaxFrame = 1 << 20

// frameBuf is a pooled outbound frame buffer: Send encodes
// [header | payload] into one and blocks until the write carrying those
// bytes finished (directly or inside a coalesced flush batch), so the
// buffer can return to the pool the moment Send's outcome is known.
// maxPooledFrame keeps the occasional MiB-sized value frame from pinning
// pool memory.
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
// free port) with the default options.
func ListenTCP(addr string) (*TCPEndpoint, error) {
	return ListenTCPOptions(addr, TCPOptions{})
}

// ListenTCPOptions starts an endpoint with explicit dispatch options.
func ListenTCPOptions(addr string, opts TCPOptions) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	reg := metrics.NewRegistry()
	ep := &TCPEndpoint{
		ln:      ln,
		sem:     make(chan struct{}, opts.workers()),
		conns:   make(map[string]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
		metrics: reg,
		em:      newEndpointMetrics(reg),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the listening address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Metrics returns the endpoint's instrument registry (frame and byte
// counters, dispatch-wait histogram, in-flight and write-queue gauges),
// for merging into a node's debug endpoint or a bench snapshot.
func (e *TCPEndpoint) Metrics() *metrics.Registry { return e.metrics }

// SetHandler installs the inbound handler.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.inbound[c] = struct{}{}
		e.mu.Unlock()
		e.em.accepts.Inc()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()

	// This read loop IS the connection's ordered delivery lane: frames are
	// handled inline, one at a time, in arrival order. The endpoint
	// semaphore bounds concurrency across lanes and a handler that stalls
	// blocks only this connection (its socket buffer and TCP flow control
	// provide the bounded mailbox).
	// Frames are read into two buffers reused for the life of the
	// connection (the Handler contract: payloads are valid only for the
	// duration of the call, and every handler in this codebase decodes or
	// copies synchronously). The peer's address is constant per
	// connection, so the `from` string is interned once; together with
	// the pooled send frames this makes the steady-state transport path
	// allocation-free per message.
	r := bufio.NewReader(c)
	peer := ""
	var fromBuf, payloadBuf []byte
	for {
		fromB, payload, err := readFrameInto(r, &fromBuf, &payloadBuf)
		if err != nil {
			return
		}
		from := peer
		if string(fromB) != peer { // comparison does not allocate
			from = string(fromB)
		}
		if peer == "" {
			// First frame on a fresh inbound connection: the peer dialled
			// us anew, which hints that it may have restarted without our
			// outbound watcher having seen a FIN or RST (a host that lost
			// power sends neither). Drop the cached connection while it is
			// idle so the next Send re-dials the live incarnation. A
			// healthy peer re-dialling costs one extra dial, nothing more.
			peer = from
			e.refreshOutbound(from)
		}
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h == nil {
			continue
		}
		// The wait for a dispatch slot is the endpoint's contention
		// signal; the gauge pair brackets the handler so /metrics shows
		// live concurrency.
		wait := time.Now()
		e.sem <- struct{}{}
		e.em.dispatchWait.Observe(time.Since(wait).Seconds())
		e.em.framesIn.Inc()
		e.em.bytesIn.Add(uint64(len(payload)))
		e.em.inflight.Inc()
		h(from, payload)
		e.em.inflight.Dec()
		<-e.sem
		if cap(payloadBuf) > maxPooledFrame {
			// Don't let one oversized value frame pin a MiB of buffer for
			// the connection's remaining lifetime.
			payloadBuf = nil
		}
	}
}

// refreshOutbound drops the cached outbound connection to `to` if it is
// idle (no coalesced write in flight, nothing queued). Called when `to`
// dials in on a fresh connection — the restart hint; see readLoop. A
// connection mid-write is left alone: if it really is dead the write
// fails and Send's error path evicts it anyway.
func (e *TCPEndpoint) refreshOutbound(to string) {
	e.mu.Lock()
	c := e.conns[to]
	e.mu.Unlock()
	if c == nil {
		return
	}
	c.mu.Lock()
	idle := !c.flushing && len(c.pending) == 0
	c.mu.Unlock()
	if idle {
		e.evict(to, c)
		e.em.refreshes.Inc()
	}
}

// Send dials (or reuses) a connection to the peer and writes one frame.
// Concurrent Sends are safe: frames to the same peer never interleave
// their bytes, and frames queued while another frame's write syscall is
// in flight are flushed together with a single Write (group commit).
// Send returns once its own frame has been written (or the coalesced
// write carrying it failed).
func (e *TCPEndpoint) Send(to string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	c, ok := e.conns[to]
	e.mu.Unlock()
	if !ok {
		nc, err := net.Dial("tcp", to)
		if err != nil {
			e.em.sendErrs.Inc()
			return fmt.Errorf("transport: dial %s: %w", to, err)
		}
		e.em.dials.Inc()
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			nc.Close()
			return ErrClosed
		}
		if existing, dup := e.conns[to]; dup {
			nc.Close()
			c = existing
		} else {
			c = &tcpConn{c: nc, em: &e.em}
			e.conns[to] = c
			e.wg.Add(1)
			go e.watchOutbound(to, c)
		}
		e.mu.Unlock()
	}
	fb := framePool.Get().(*frameBuf)
	fb.b = appendFrame(fb.b[:0], e.Addr(), payload)
	// writeCoalesced returns only after the Write call that carried this
	// frame's bytes finished (its own, or a flush batch that copied them
	// out first), so the buffer is reusable on return.
	err := c.writeCoalesced(fb.b)
	putFrameBuf(fb)
	if err != nil {
		e.em.sendErrs.Inc()
		e.evict(to, c)
		return err
	}
	e.em.framesOut.Inc()
	e.em.bytesOut.Add(uint64(len(payload)))
	return nil
}

// watchOutbound blocks in Read on a dialled connection. Nothing is ever
// sent to us on it, so Read returns only when the peer closed or reset
// the connection, or when we closed it ourselves; either way the cache
// entry is dead.
func (e *TCPEndpoint) watchOutbound(to string, c *tcpConn) {
	defer e.wg.Done()
	var b [1]byte
	_, _ = c.c.Read(b[:]) // any outcome means the connection is finished
	e.evict(to, c)
}

// evict removes c from the connection cache, if it is still the cached
// connection to `to`, and closes it. A Send that already holds c fails
// its Write and reports the error to its caller.
func (e *TCPEndpoint) evict(to string, c *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
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

	_, err := cc.c.Write(frame)
	// Anything that queued up behind us is flushed by a dedicated
	// goroutine, not by looping here: this goroutine is usually a
	// connection read loop's handler, and under sustained load the
	// pending buffer can refill faster than it drains — looping would
	// hold this sender (and its lane, and a dispatch-worker slot)
	// captive indefinitely. At most one flushPending goroutine exists
	// per connection, because flushing stays true until it drains.
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

		// Flatten into the flusher-private scratch: one Write per batch
		// keeps group commit's syscall economics without net.Buffers
		// (whose writev fast path only exists for real TCP conns).
		buf := cc.wbuf[:0]
		for _, f := range frames {
			buf = append(buf, f.buf...)
		}
		_, werr := cc.c.Write(buf)
		cc.wbuf = buf[:0]
		for _, f := range frames {
			f.done <- werr
		}
	}
}

// Close shuts the endpoint down, tearing down outbound and inbound
// connections and waiting for the accept, reader and watcher goroutines
// to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	for _, c := range e.conns {
		c.c.Close()
	}
	e.conns = map[string]*tcpConn{}
	for c := range e.inbound {
		c.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}

// Frame format: u32 fromLen | from | u32 payloadLen | payload.

// appendFrame appends one whole frame to buf so it can be written with a
// single Write call.
func appendFrame(buf []byte, from string, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(from)))
	buf = append(buf, from...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// readFrameInto reads one frame, reusing (and growing as needed) the
// caller's two buffers. The returned slices alias those buffers and are
// valid only until the next call — the read loop enforces the Handler
// payload-lifetime contract before reusing them.
func readFrameInto(r io.Reader, fromBuf, payloadBuf *[]byte) (from, payload []byte, err error) {
	if from, err = readSegment(r, fromBuf); err != nil {
		return
	}
	payload, err = readSegment(r, payloadBuf)
	return
}

func readSegment(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, errors.New("transport: oversized frame")
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

var _ Endpoint = (*TCPEndpoint)(nil)
