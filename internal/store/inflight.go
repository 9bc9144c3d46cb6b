package store

import (
	"sync"
	"time"

	"voronet/internal/proto"
)

// Reply is the outcome of one routed request — a store operation or a
// point query — delivered to the callback registered with Inflight.Add.
type Reply struct {
	// Found reports whether the key had a live record (GET) or the
	// operation was applied (PUT / DELETE ack); a query answer is always
	// Found.
	Found bool
	// Value is the record payload (GET only).
	Value []byte
	// Version is the version acted upon.
	Version uint64
	// Owner is the node that answered: for a query, the owner of the
	// queried point.
	Owner proto.NodeInfo
	// Hops is the greedy route length the request travelled.
	Hops int
	// Path is the per-hop routing trace, populated only for traced
	// operations (Node.GetTrace): one entry per node the request
	// visited, ending with the answering owner or replica.
	Path []proto.TraceHop
	// Err is ErrTimeout when the reply deadline passed, ErrOverloaded
	// when the owner shed the operation, nil otherwise.
	Err error
}

// ReplyOf reads the answer an envelope carries back to a request's
// origin: a KindStoreReply, or a KindQueryAnswer, whose sender is the
// queried point's owner and so always Found. An owner-side shed becomes
// ErrOverloaded, an explicit retry-later error rather than a silent
// not-found.
func ReplyOf(env *proto.Envelope) Reply {
	r := Reply{
		Found: env.Found || env.Type == proto.KindQueryAnswer, Value: env.Value,
		Version: env.Version, Owner: env.From, Hops: env.Hops, Path: env.Path,
	}
	if env.Shed {
		r.Err = ErrOverloaded
	}
	return r
}

// Inflight correlates routed store requests with their replies: each
// request gets a fresh ID carried in the envelope's QueryID field, and the
// reply (or a timeout) resolves it exactly once.
type Inflight struct {
	mu      sync.Mutex
	seq     uint64
	limit   int // most requests pending at once; 0 = no limit
	pending map[uint64]*pendingReq
}

type pendingReq struct {
	cb    func(Reply)
	timer *time.Timer
}

// NewInflight returns an empty correlation table that admits at most
// limit unresolved requests at a time (limit <= 0: any number).
func NewInflight(limit int) *Inflight {
	return &Inflight{limit: limit, pending: make(map[uint64]*pendingReq)}
}

// Add registers cb and returns the request ID to route with. If timeout is
// positive and no reply resolves the ID in time, cb fires with
// Reply{Err: ErrTimeout}. With the table at its limit Add registers
// nothing and returns ok = false: the check and the registration are one
// step under the table's lock, so concurrent callers cannot overshoot.
func (f *Inflight) Add(cb func(Reply), timeout time.Duration) (id uint64, ok bool) {
	f.mu.Lock()
	if f.limit > 0 && len(f.pending) >= f.limit {
		f.mu.Unlock()
		return 0, false
	}
	f.seq++
	id = f.seq
	req := &pendingReq{cb: cb}
	f.pending[id] = req
	if timeout > 0 {
		req.timer = time.AfterFunc(timeout, func() {
			f.Resolve(id, Reply{Err: ErrTimeout})
		})
	}
	f.mu.Unlock()
	return id, true
}

// Resolve fires the callback registered under id with r and forgets the
// request. It reports whether id was pending (late or duplicate replies
// return false and are dropped).
func (f *Inflight) Resolve(id uint64, r Reply) bool {
	f.mu.Lock()
	req, ok := f.pending[id]
	delete(f.pending, id)
	f.mu.Unlock()
	if !ok {
		return false
	}
	if req.timer != nil {
		req.timer.Stop()
	}
	req.cb(r)
	return true
}

// Cancel forgets the request registered under id without firing its
// callback and reports whether it was still pending. Use it when the
// request could not be dispatched at all (a failed send): the caller
// already owns the error and no reply or timeout should fire for the ID.
func (f *Inflight) Cancel(id uint64) bool {
	f.mu.Lock()
	req, ok := f.pending[id]
	delete(f.pending, id)
	f.mu.Unlock()
	if !ok {
		return false
	}
	if req.timer != nil {
		req.timer.Stop()
	}
	return true
}
