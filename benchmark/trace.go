package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voronet/internal/proto"
	"voronet/internal/transport"
)

// Tracing from outside the program: every endpoint a node or client is
// built on is wrapped in tracedEndpoint, which records a span around each
// Send and around each handler invocation and tags it with what
// proto.Decode reads from a copy of the frame. Nothing under internal/
// knows it is being traced.

type spanKind uint8

const (
	spanSend   spanKind = iota // one Endpoint.Send call
	spanHandle                 // one handler invocation
)

// span is one recorded interval. A send at endpoint A to B and the
// handler invocation at B for the same frame share (From, To, Msg, Origin,
// QID, Hops); frames that carry no query id (replica pushes) are matched
// in order per (From, To, Msg), which is the transport's FIFO contract.
type span struct {
	Kind   spanKind
	Msg    proto.Kind
	From   int32 // endpoint index of the sender
	To     int32 // endpoint index of the receiver
	Origin int32 // endpoint index of the operation's origin, -1 if the frame names none
	Hops   int32
	QID    uint64
	Start  int64 // ns since the recorder's epoch
	End    int64
	Bytes  int32
}

// traceRecorder owns the spans of one traced run.
type traceRecorder struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.RWMutex
	byAddr map[string]int32 // endpoint address -> index
	eps    []*tracedEndpoint

	sampled  atomic.Int32 // frames offered to samples; past maxFrameSamples nothing takes the lock
	sampleMu sync.Mutex
	samples  [][]byte // copies of the first frames seen, for the proto probes
}

const maxFrameSamples = 2048

func newTraceRecorder() *traceRecorder {
	return &traceRecorder{epoch: time.Now(), byAddr: make(map[string]int32)}
}

// wrap interposes on ep. Call before the node or client is built on it.
func (r *traceRecorder) wrap(ep transport.Endpoint) *tracedEndpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	te := &tracedEndpoint{inner: ep, rec: r, idx: int32(len(r.eps))}
	r.byAddr[ep.Addr()] = te.idx
	r.eps = append(r.eps, te)
	return te
}

func (r *traceRecorder) index(addr string) int32 {
	r.mu.RLock()
	i, ok := r.byAddr[addr]
	r.mu.RUnlock()
	if !ok {
		return -1
	}
	return i
}

func (r *traceRecorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// drain removes and returns every recorded span, ordered by start.
func (r *traceRecorder) drain() []span {
	r.mu.RLock()
	eps := append([]*tracedEndpoint(nil), r.eps...)
	r.mu.RUnlock()
	var out []span
	for _, te := range eps {
		te.mu.Lock()
		out = append(out, te.spans...)
		te.spans = nil
		te.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (r *traceRecorder) keepSample(payload []byte) {
	if r.sampled.Load() >= maxFrameSamples || r.sampled.Add(1) > maxFrameSamples {
		return
	}
	r.sampleMu.Lock()
	r.samples = append(r.samples, append([]byte(nil), payload...))
	r.sampleMu.Unlock()
}

// tracedEndpoint is the decorator. With the recorder off it forwards
// straight through, which is how the untraced phases of a traced run
// (and trace.overhead_frac's baseline) are measured on the same overlay.
type tracedEndpoint struct {
	inner transport.Endpoint
	rec   *traceRecorder
	idx   int32

	mu    sync.Mutex
	spans []span
}

func (te *tracedEndpoint) Addr() string { return te.inner.Addr() }
func (te *tracedEndpoint) Close() error { return te.inner.Close() }

// tag fills a span's message fields from the frame. Decode copies what it
// keeps, so reading the transport-owned payload here is safe.
func (te *tracedEndpoint) tag(s *span, payload []byte) {
	s.Bytes = int32(len(payload))
	s.Origin = -1
	env, err := proto.Decode(payload)
	if err != nil {
		return
	}
	s.Msg, s.QID, s.Hops = env.Type, env.QueryID, int32(env.Hops)
	switch env.Type {
	case proto.KindRoute:
		s.Origin = te.rec.index(env.Origin.Addr)
	case proto.KindStoreReply, proto.KindQueryAnswer:
		s.Origin = s.To // replies travel straight to the origin
	}
}

func (te *tracedEndpoint) add(s span) {
	te.mu.Lock()
	te.spans = append(te.spans, s)
	te.mu.Unlock()
}

func (te *tracedEndpoint) Send(to string, payload []byte) error {
	if !te.rec.on.Load() {
		return te.inner.Send(to, payload)
	}
	s := span{Kind: spanSend, From: te.idx, To: te.rec.index(to)}
	te.tag(&s, payload)
	te.rec.keepSample(payload)
	s.Start = te.rec.since(time.Now())
	err := te.inner.Send(to, payload)
	s.End = te.rec.since(time.Now())
	te.add(s)
	return err
}

func (te *tracedEndpoint) SetHandler(h transport.Handler) {
	te.inner.SetHandler(func(from string, payload []byte) {
		if !te.rec.on.Load() {
			h(from, payload)
			return
		}
		start := time.Now()
		s := span{Kind: spanHandle, From: te.rec.index(from), To: te.idx}
		te.tag(&s, payload)
		s.Start = te.rec.since(start)
		h(from, payload)
		s.End = te.rec.since(time.Now())
		te.add(s)
	})
}

// opSpan is the root span of one client operation, recorded by the load
// generator around the client call.
type opSpan struct {
	Client     int32 // endpoint index of the issuing client
	Kind       opKind
	Start, End int64
}

// traceSummary is what the spans of a c1 phase (one operation in flight
// in the whole system) reduce to.
type traceSummary struct {
	Ops            int     `json:"ops"`             // operations analysed
	Spans          int     `json:"spans"`           // spans recorded in the phase
	Unmatched      int     `json:"unmatched_sends"` // tagged sends with no handler span
	ClientOverhead float64 `json:"client_overhead_us"`
	HandleUS       float64 `json:"handle_us"` // mean handler self time on the blocking path
	SendUS         float64 `json:"send_us"`   // mean Send call
	WireUS         float64 `json:"wire_us"`   // mean send start -> handler start
	Handlers       float64 `json:"handlers_per_op"`
	Legs           float64 `json:"legs_per_op"`
	Coverage       float64 `json:"coverage"` // median over operations
}

type matchKey struct {
	from, to, origin, hops int32
	msg                    proto.Kind
	qid                    uint64
}

func keyOf(s *span) matchKey {
	return matchKey{s.From, s.To, s.Origin, s.Hops, s.Msg, s.QID}
}

// summarise rebuilds each operation's blocking path. With one operation
// in flight, the frames tagged (origin = the client, query id) and sent
// inside the root span are that operation's: client → gateway → … →
// answering node → client. Per operation:
//
//	leg      = send start at A → handler start at B           (transport.wire_us)
//	handle   = handler span at a node − the Sends made inside  (node.handle_us)
//	overhead = root span − union(legs ∪ node handler spans)    (client.overhead_us)
//	coverage = (overhead + Σ handle + Σ legs) ÷ root span
//
// Coverage is above 1 by whatever a handler does after its forwarding
// Send returns (that tail overlaps the next leg) and below 1 when spans
// are missing.
func summarise(ops []opSpan, spans []span) traceSummary {
	sum := traceSummary{Spans: len(spans)}
	// Handler spans by match key, in arrival order.
	handlers := make(map[matchKey][]int)
	for i := range spans {
		if spans[i].Kind == spanHandle {
			k := keyOf(&spans[i])
			handlers[k] = append(handlers[k], i)
		}
	}
	// Sends per endpoint, in start order, for "Sends made inside a handler".
	sendsAt := make(map[int32][]int)
	for i := range spans {
		if spans[i].Kind == spanSend {
			sendsAt[spans[i].From] = append(sendsAt[spans[i].From], i)
		}
	}
	var overheads, coverages []float64
	var handleNS, wireNS, sendNS float64
	var nHandle, nLegs, nSends int
	for i := range spans {
		if spans[i].Kind == spanSend {
			sendNS += float64(spans[i].End - spans[i].Start)
			nSends++
		}
	}
	lo := 0
	for _, op := range ops {
		for lo < len(spans) && spans[lo].Start < op.Start {
			lo++
		}
		var ivs [][2]int64 // intervals the root span's children cover
		var opHandle, opLegs float64
		complete := false
		for i := lo; i < len(spans) && spans[i].Start <= op.End; i++ {
			s := &spans[i]
			if s.Kind != spanSend || s.Origin != op.Client || s.QID == 0 {
				continue
			}
			k := keyOf(s)
			hs := handlers[k]
			if len(hs) == 0 {
				sum.Unmatched++
				continue
			}
			h := &spans[hs[0]]
			handlers[k] = hs[1:]
			if h.Start < s.Start {
				continue // clock went backwards across goroutines; drop the leg
			}
			opLegs += float64(h.Start - s.Start)
			nLegs++
			ivs = append(ivs, [2]int64{s.Start, h.Start})
			if h.To == op.Client {
				complete = true // the reply reached the client: its handler is client time
				continue
			}
			self := float64(h.End - h.Start)
			at := sendsAt[h.To]
			first := sort.Search(len(at), func(j int) bool { return spans[at[j]].Start >= h.Start })
			for _, si := range at[first:] {
				n := &spans[si]
				if n.Start > h.End {
					break
				}
				if n.End <= h.End {
					self -= float64(n.End - n.Start)
				}
			}
			opHandle += self
			nHandle++
			ivs = append(ivs, [2]int64{h.Start, h.End})
		}
		if !complete {
			continue
		}
		root := float64(op.End - op.Start)
		over := root - float64(unionLen(ivs, op.Start, op.End))
		sum.Ops++
		handleNS += opHandle
		wireNS += opLegs
		overheads = append(overheads, over/1e3)
		coverages = append(coverages, (over+opHandle+opLegs)/root)
	}
	if sum.Ops > 0 {
		sum.ClientOverhead = medianFloat(overheads)
		sum.Coverage = medianFloat(coverages)
		sum.Handlers = float64(nHandle) / float64(sum.Ops)
		sum.Legs = float64(nLegs) / float64(sum.Ops)
	}
	if nHandle > 0 {
		sum.HandleUS = handleNS / float64(nHandle) / 1e3
	}
	if nLegs > 0 {
		sum.WireUS = wireNS / float64(nLegs) / 1e3
	}
	if nSends > 0 {
		sum.SendUS = sendNS / float64(nSends) / 1e3
	}
	return sum
}

// unionLen is the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// writeTrace dumps the analysed phase as JSON: one object per root span
// and per recorded span, times in ns since the run's trace epoch.
func writeTrace(dir, workload string, ops []opSpan, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"ops\":[", workload)
	for i, o := range ops {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":\"client.op\",\"op\":%q,\"client\":%d,\"start\":%d,\"end\":%d}", o.Kind, o.Client, o.Start, o.End)
	}
	w.WriteString("],\n\"spans\":[")
	for i := range spans {
		s := &spans[i]
		if i > 0 {
			w.WriteByte(',')
		}
		name := "transport.send"
		if s.Kind == spanHandle {
			name = "handler"
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"msg\":%q,\"from\":%d,\"to\":%d,\"origin\":%d,\"qid\":%d,\"hops\":%d,\"bytes\":%d,\"start\":%d,\"end\":%d}",
			name, s.Msg, s.From, s.To, s.Origin, s.QID, s.Hops, s.Bytes, s.Start, s.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
