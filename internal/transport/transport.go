// Package transport carries opaque messages between VoroNet nodes. Two
// implementations are provided: a deterministic in-memory simnet (Bus) for
// protocol tests, simulation and chaos scenarios, and a TCP transport
// (net) for real deployments.
package transport

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"voronet/internal/metrics"
)

// Handler processes an inbound message. The payload slice is owned by
// the transport and valid only for the duration of the call: a TCP lane
// hands the frame over where it lies in a pooled read buffer, which goes
// back to the pool once the socket is drained, so a handler that needs
// the bytes later must copy them (every handler in this codebase decodes
// or copies synchronously).
type Handler func(from string, payload []byte)

// Endpoint is one node's attachment to a transport.
type Endpoint interface {
	// Addr is this endpoint's address, routable by peers.
	Addr() string
	// Send delivers payload to the endpoint with address `to`. Send does
	// not retain payload after it returns — the Bus copies it into the
	// queued message and TCP blocks until the bytes reach the socket
	// write — so callers may encode into pooled buffers and recycle them
	// as soon as Send's outcome is known (see proto.GetBuf).
	Send(to string, payload []byte) error
	// SetHandler installs the inbound message handler. Must be called
	// before any message can be delivered.
	SetHandler(h Handler)
	// Close detaches the endpoint.
	Close() error
}

// ErrUnknownPeer reports a send to an address that is not attached.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed reports a send through an endpoint that has been closed. Like
// ErrUnknownPeer it is structural: the message can never be delivered by
// retrying the same send, so callers must repair instead of retry.
var ErrClosed = errors.New("transport: endpoint closed")

// Bus is an in-memory simnet. Messages are timestamped in virtual time at
// Send and delivered by Drain in (delivery time, send sequence) order, so
// a fault-free bus behaves as a FIFO queue and latency rules reorder
// deliveries exactly as a real network would. All fault decisions — drops,
// latencies, partitions — are drawn from a single seeded RNG at Send time,
// which makes whole distributed protocol runs reproducible bit for bit.
//
// Fault injection is per host: SetPeerRule pins a rule to every link
// touching one address, and SetDefaultRule applies to everything else. Named partitions drop messages that
// cross group boundaries until healed. Faults never surface as Send
// errors: like a real lossy network, the message silently disappears (and
// DroppedCount increments). Send errors are reserved for structural
// conditions — a closed endpoint or an address that was never attached or
// has crashed.
type Bus struct {
	mu    sync.Mutex
	peers map[string]*busEndpoint
	queue msgQueue
	seq   uint64
	now   uint64
	rng   *rand.Rand

	// Message accounting. Atomics, not plain fields: any goroutine
	// holding a snapshot reads them concurrently with senders and Drain.
	// The conservation law tests and the harness checker rely on is
	// sends == delivered + dropped + pending.
	sends     atomic.Uint64 // Send calls that returned nil (queued or fault-dropped)
	delivered atomic.Uint64 // messages handed to a handler
	dropped   atomic.Uint64 // lost to faults at send time or to a detached destination

	defRule    LinkRule
	peerRules  map[string]LinkRule
	partitions map[string]map[string]int
}

// LinkRule describes fault injection for a set of directed links. The zero
// value is a perfect link: zero latency, no loss.
type LinkRule struct {
	// MinLatency and MaxLatency bound the virtual-time delivery delay in
	// ticks; each message draws uniformly from [MinLatency, MaxLatency].
	// Unequal latencies across links reorder deliveries.
	MinLatency, MaxLatency uint64
	// Drop is the probability in [0,1] that a message on the link is
	// silently lost, drawn from the bus's seeded RNG.
	Drop float64
	// Down severs the link while set: every message is dropped. A one-way
	// failure is expressed by setting Down on one direction only.
	Down bool
	// DropFrom and DropUntil schedule an outage in virtual time: a
	// message sent at now ∈ [DropFrom, DropUntil) is dropped. The window
	// is inactive when DropUntil is zero.
	DropFrom, DropUntil uint64
}

type busMsg struct {
	at       uint64 // virtual delivery time
	seq      uint64 // send order, ties broken FIFO
	from, to string
	payload  []byte
}

// msgQueue is a delivery-time-ordered heap of in-flight messages.
type msgQueue []busMsg

func (q msgQueue) Len() int { return len(q) }
func (q msgQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q msgQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *msgQueue) Push(x any)   { *q = append(*q, x.(busMsg)) }
func (q *msgQueue) Pop() any {
	old := *q
	n := len(old)
	m := old[n-1]
	*q = old[:n-1]
	return m
}

type busEndpoint struct {
	bus     *Bus
	addr    string
	handler Handler
	closed  bool
}

// NewSeededBus returns an empty bus whose fault decisions (probabilistic
// drops, latency draws) follow the given seed.
func NewSeededBus(seed int64) *Bus {
	return &Bus{
		peers:      make(map[string]*busEndpoint),
		rng:        rand.New(rand.NewSource(seed)),
		peerRules:  make(map[string]LinkRule),
		partitions: make(map[string]map[string]int),
	}
}

// Attach creates an endpoint with the given address.
func (b *Bus) Attach(addr string) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.peers[addr]; dup {
		return nil, fmt.Errorf("transport: address %q already attached", addr)
	}
	ep := &busEndpoint{bus: b, addr: addr}
	b.peers[addr] = ep
	return ep, nil
}

// SetDefaultRule installs the rule applied to links with no more specific
// rule.
func (b *Bus) SetDefaultRule(r LinkRule) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.defRule = r
}

// SetPeerRule applies a rule to every link into or out of addr (a slow or
// flaky host rather than a single bad cable). The destination's peer rule
// is consulted before the source's.
func (b *Bus) SetPeerRule(addr string, r LinkRule) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peerRules[addr] = r
}

// ClearRules removes every peer and default rule. Installed
// partitions are unaffected (heal them explicitly).
func (b *Bus) ClearRules() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.defRule = LinkRule{}
	b.peerRules = make(map[string]LinkRule)
}

// InstallPartition installs (or replaces) a named partition: a message
// whose source and destination fall in different groups is dropped.
// Addresses absent from every group are unconstrained by this partition.
// The partition persists until Heal.
func (b *Bus) InstallPartition(name string, groups ...[]string) {
	m := make(map[string]int)
	for gi, g := range groups {
		for _, a := range g {
			m[a] = gi
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partitions[name] = m
}

// Heal removes every installed partition.
func (b *Bus) Heal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partitions = make(map[string]map[string]int)
}

// Now returns the current virtual time in ticks. It advances only when
// Drain delivers a message bearing a later timestamp.
func (b *Bus) Now() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// ruleFor resolves the effective rule for one directed link. Caller holds
// b.mu.
func (b *Bus) ruleFor(from, to string) LinkRule {
	if r, ok := b.peerRules[to]; ok {
		return r
	}
	if r, ok := b.peerRules[from]; ok {
		return r
	}
	return b.defRule
}

// partitioned reports whether any installed partition separates from and
// to. Caller holds b.mu. (Map iteration order is irrelevant: the result is
// a pure OR and no RNG is consumed.)
func (b *Bus) partitioned(from, to string) bool {
	for _, groups := range b.partitions {
		gf, okf := groups[from]
		gt, okt := groups[to]
		if okf && okt && gf != gt {
			return true
		}
	}
	return false
}

// Drain delivers queued messages in virtual-time order (including ones
// enqueued by handlers during the drain) until the queue is empty,
// advancing the virtual clock to each message's delivery time. It returns
// the number of messages delivered.
func (b *Bus) Drain() int {
	n := 0
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.mu.Unlock()
			return n
		}
		m := heap.Pop(&b.queue).(busMsg)
		if m.at > b.now {
			b.now = m.at
		}
		ep := b.peers[m.to]
		if ep == nil || ep.handler == nil {
			// The destination detached (crashed) with the message in
			// flight: the message is lost, observably.
			b.dropped.Add(1)
			b.mu.Unlock()
			continue
		}
		b.delivered.Add(1)
		h := ep.handler
		b.mu.Unlock()
		h(m.from, m.payload)
		n++
	}
}

// Pending returns the number of undelivered messages.
func (b *Bus) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// SendCount returns how many Send calls were accepted (queued for
// delivery or silently fault-dropped; errored sends are excluded).
func (b *Bus) SendCount() uint64 { return b.sends.Load() }

// DeliveredCount returns how many messages were handed to a handler.
func (b *Bus) DeliveredCount() uint64 { return b.delivered.Load() }

// DroppedCount returns how many messages were lost — to fault injection
// (link rules, partitions) at send time, or to a destination that
// detached while the message was in flight.
func (b *Bus) DroppedCount() uint64 { return b.dropped.Load() }

// MetricsSnapshot exports the bus counters as a metrics snapshot, for
// merging into node registries (the harness checker).
// Every accepted send is accounted exactly once as delivered, dropped or
// pending, so bus_sends_total == bus_delivered_total + bus_dropped_total
// + bus_pending after any full Drain.
func (b *Bus) MetricsSnapshot() metrics.Snapshot {
	return metrics.Snapshot{
		Counters: map[string]uint64{
			"bus_sends_total":     b.sends.Load(),
			"bus_delivered_total": b.delivered.Load(),
			"bus_dropped_total":   b.dropped.Load(),
		},
		Gauges: map[string]int64{
			"bus_pending": int64(b.Pending()),
		},
	}
}

func (e *busEndpoint) Addr() string { return e.addr }

func (e *busEndpoint) Send(to string, payload []byte) error {
	b := e.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, ok := b.peers[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	// Fault decisions happen at send time, in send order, so a fixed
	// message sequence consumes the RNG identically across runs.
	rule := b.ruleFor(e.addr, to)
	drop := b.partitioned(e.addr, to) || rule.Down ||
		rule.DropUntil > 0 && b.now >= rule.DropFrom && b.now < rule.DropUntil ||
		rule.Drop > 0 && b.rng.Float64() < rule.Drop
	if drop {
		b.sends.Add(1)
		b.dropped.Add(1)
		return nil
	}
	lat := rule.MinLatency
	if rule.MaxLatency > rule.MinLatency {
		lat += uint64(b.rng.Int63n(int64(rule.MaxLatency - rule.MinLatency + 1)))
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	b.seq++
	b.sends.Add(1)
	heap.Push(&b.queue, busMsg{at: b.now + lat, seq: b.seq, from: e.addr, to: to, payload: cp})
	return nil
}

func (e *busEndpoint) SetHandler(h Handler) { e.handler = h }

func (e *busEndpoint) Close() error {
	b := e.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	e.closed = true
	delete(b.peers, e.addr)
	return nil
}
