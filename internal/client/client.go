// Package client is a thin pipelined VoroNet client: it multiplexes any
// number of in-flight PUT / GET / DELETE / point-query operations over a
// single connection to one overlay member (the gateway), without joining
// the overlay itself.
//
// The client owns a transport endpoint whose address rides in each routed
// envelope's Origin field, so answers travel from the answering node
// straight back to the client — the gateway forwards requests but never
// relays replies. Requests are correlated by QueryID through the same
// Inflight table the node runtime uses; each request carries its own
// deadline, so a crashed owner fails one operation, not the connection.
//
// This replaces dial-per-operation command loops: over TCP all requests
// to the gateway share one cached connection (the transport's group
// commit batches their frames), and responses are demultiplexed as they
// arrive, so slow operations never head-of-line-block fast ones.
package client

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// DefaultTimeout is the per-request deadline when Options.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// DefaultRetryBackoff is the first retry delay when Options.Retries > 0
// and Options.RetryBackoff is zero. Each further attempt doubles it.
const DefaultRetryBackoff = 50 * time.Millisecond

// Options tunes Dial.
type Options struct {
	// Listen is the TCP address the client receives replies on
	// ("127.0.0.1:0" when empty — note the reply path requires the
	// answering nodes to be able to dial it back).
	Listen string
	// Timeout is the per-request deadline (DefaultTimeout when zero).
	Timeout time.Duration
	// Retries is how many times an operation refused with
	// store.ErrOverloaded (an admission-control shed, not a failure) is
	// transparently re-dispatched before the error reaches the caller.
	// Zero disables retrying.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling on each
	// further attempt (DefaultRetryBackoff when zero and Retries > 0).
	RetryBackoff time.Duration
}

// Client is a pipelined connection to a VoroNet overlay. Methods are safe
// for concurrent use; any number of operations may be in flight at once.
type Client struct {
	ep       transport.Endpoint
	ownEP    bool
	gateway  string
	timeout  time.Duration
	inflight *store.Inflight
	self     proto.NodeInfo
	retries  int
	backoff  time.Duration
	retried  atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Dial opens a pipelined client to the overlay member at gateway,
// listening for replies on its own TCP endpoint.
func Dial(gateway string, opts Options) (*Client, error) {
	listen := opts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		return nil, err
	}
	c := New(ep, gateway, opts.Timeout)
	c.SetRetryPolicy(opts.Retries, opts.RetryBackoff)
	c.ownEP = true
	return c, nil
}

// New builds a client over an existing endpoint (a simnet Bus attachment
// in tests, or a shared TCP endpoint). The client installs the endpoint's
// handler; the endpoint is not closed by Client.Close.
func New(ep transport.Endpoint, gateway string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c := &Client{
		ep:       ep,
		gateway:  gateway,
		timeout:  timeout,
		inflight: store.NewInflight(0),
		self:     proto.NodeInfo{Addr: ep.Addr()},
	}
	ep.SetHandler(c.handle)
	return c
}

// SetRetryPolicy configures transparent retrying of overload sheds for a
// client built with New (Dial wires it from Options): up to retries
// re-dispatches per operation, the first after backoff, doubling each
// attempt. Call before issuing operations.
func (c *Client) SetRetryPolicy(retries int, backoff time.Duration) {
	if retries > 0 && backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	c.retries, c.backoff = retries, backoff
}

// Retried returns how many times this client has re-dispatched an
// operation: overload-shed retries, and sends to the gateway repeated
// after a transport error.
func (c *Client) Retried() uint64 { return c.retried.Load() }

// Addr returns the client's reply address.
func (c *Client) Addr() string { return c.self.Addr }

// Pending returns the number of operations awaiting a reply.
func (c *Client) Pending() int { return c.inflight.Pending() }

// Close tears the client down. Replies arriving afterwards are dropped;
// in-flight operations fail via their own deadlines. The endpoint is
// closed only if Dial created it.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	own := c.ownEP
	c.mu.Unlock()
	if own {
		return c.ep.Close()
	}
	return nil
}

// handle demultiplexes one inbound reply frame onto its waiting request.
func (c *Client) handle(from string, payload []byte) {
	env, err := proto.Decode(payload)
	if err != nil {
		return // malformed frame: drop, the request's deadline reports it
	}
	switch env.Type {
	case proto.KindStoreReply:
		r := store.Reply{
			Found: env.Found, Value: env.Value, Version: env.Version,
			Owner: env.From, Hops: env.Hops, Path: env.Path,
		}
		if env.Shed {
			// The owner refused the op under overload: an explicit
			// retry-later error, which the retry policy may absorb.
			r.Err = store.ErrOverloaded
		}
		c.inflight.Resolve(env.QueryID, r)
	case proto.KindQueryAnswer:
		// A point query's answer: the owner itself is the payload.
		c.inflight.Resolve(env.QueryID, store.Reply{
			Found: true, Owner: env.From, Hops: env.Hops, Path: env.Path,
		})
	}
}

// dispatch registers cb under a fresh request ID and sends one routed
// envelope to the gateway. A send that fails twice unregisters the
// callback and returns the error — cb fires exactly once (reply or
// deadline) iff dispatch returned nil.
func (c *Client) dispatch(purpose proto.RoutedPurpose, key geom.Point, value []byte, cb func(store.Reply)) error {
	if cb == nil {
		cb = func(store.Reply) {}
	}
	return c.dispatchAttempt(purpose, key, value, cb, 0)
}

// dispatchAttempt is dispatch with retry bookkeeping: while attempts
// remain, an ErrOverloaded reply (origin-gateway or owner shed) is
// absorbed and the operation re-dispatched after an exponentially grown
// backoff instead of reaching the caller. Each attempt is a fresh
// request with its own deadline; the caller's callback still fires
// exactly once.
func (c *Client) dispatchAttempt(purpose proto.RoutedPurpose, key geom.Point, value []byte, cb func(store.Reply), attempt int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	c.mu.Unlock()
	inner := cb
	if attempt < c.retries {
		inner = func(r store.Reply) {
			if !errors.Is(r.Err, store.ErrOverloaded) {
				cb(r)
				return
			}
			c.retried.Add(1)
			time.AfterFunc(c.backoff<<attempt, func() {
				if err := c.dispatchAttempt(purpose, key, value, cb, attempt+1); err != nil {
					cb(store.Reply{Err: err})
				}
			})
		}
	}
	id, _ := c.inflight.Add(inner, c.timeout) // no limit: never refused
	env := &proto.Envelope{
		Type:    proto.KindRoute,
		Purpose: purpose,
		Target:  key,
		Value:   value,
		From:    c.self,
		Origin:  c.self,
		QueryID: id,
	}
	// Encode into a pooled buffer: Endpoint.Send never retains the
	// payload after it returns (see transport.Endpoint), so the buffer
	// recycles as soon as the outcome is known.
	wb := proto.GetBuf()
	defer wb.Put()
	wb.B = proto.AppendEncode(wb.B[:0], env)
	err := c.ep.Send(c.gateway, wb.B)
	if err != nil && !errors.Is(err, transport.ErrUnknownPeer) && !errors.Is(err, transport.ErrClosed) {
		// A cached connection to the gateway can die between two
		// operations (the gateway restarted, an idle timeout in between).
		// The transport evicted it when the send failed, so sending again
		// dials afresh — as internal/node does for its own sends. The
		// structural errors cannot be retried away.
		c.retried.Add(1)
		err = c.ep.Send(c.gateway, wb.B)
	}
	if err != nil {
		c.inflight.Cancel(id)
	}
	return err
}

// Put stores value under key; cb fires with the owner's ack (or a
// deadline error).
func (c *Client) Put(key geom.Point, value []byte, cb func(store.Reply)) error {
	return c.dispatch(proto.PurposeStorePut, key, value, cb)
}

// Get fetches the record under key; cb fires with the first answer (owner
// or passing replica).
func (c *Client) Get(key geom.Point, cb func(store.Reply)) error {
	return c.dispatch(proto.PurposeStoreGet, key, nil, cb)
}

// Delete tombstones the record under key.
func (c *Client) Delete(key geom.Point, cb func(store.Reply)) error {
	return c.dispatch(proto.PurposeStoreDelete, key, nil, cb)
}

// Query resolves the overlay node owning point p's Voronoi region; cb's
// Reply carries it in Owner.
func (c *Client) Query(p geom.Point, cb func(store.Reply)) error {
	return c.dispatch(proto.PurposeQuery, p, nil, cb)
}

// sync runs op and waits for its reply.
func (c *Client) sync(op func(cb func(store.Reply)) error) (store.Reply, error) {
	ch := make(chan store.Reply, 1)
	if err := op(func(r store.Reply) { ch <- r }); err != nil {
		return store.Reply{}, err
	}
	r := <-ch
	return r, r.Err
}

// PutSync is Put, awaited.
func (c *Client) PutSync(key geom.Point, value []byte) error {
	_, err := c.sync(func(cb func(store.Reply)) error { return c.Put(key, value, cb) })
	return err
}

// GetSync is Get, awaited; store.ErrNotFound reports a missing key.
func (c *Client) GetSync(key geom.Point) ([]byte, error) {
	r, err := c.sync(func(cb func(store.Reply)) error { return c.Get(key, cb) })
	if err != nil {
		return nil, err
	}
	if !r.Found {
		return nil, store.ErrNotFound
	}
	return r.Value, nil
}

// DeleteSync is Delete, awaited; store.ErrNotFound reports a missing key.
func (c *Client) DeleteSync(key geom.Point) error {
	r, err := c.sync(func(cb func(store.Reply)) error { return c.Delete(key, cb) })
	if err != nil {
		return err
	}
	if !r.Found {
		return store.ErrNotFound
	}
	return nil
}

// QuerySync is Query, awaited: the owner of p's region and the hop count
// of the answer.
func (c *Client) QuerySync(p geom.Point) (proto.NodeInfo, int, error) {
	r, err := c.sync(func(cb func(store.Reply)) error { return c.Query(p, cb) })
	if err != nil {
		return proto.NodeInfo{}, 0, err
	}
	return r.Owner, r.Hops, nil
}
