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

// defaultTimeout is the per-request deadline when Options.Timeout is zero.
const defaultTimeout = 30 * time.Second

// Options tunes Dial.
type Options struct {
	// Listen is the TCP address the client receives replies on
	// ("127.0.0.1:0" when empty — note the reply path requires the
	// answering nodes to be able to dial it back).
	Listen string
	// Timeout is the per-request deadline (30 s when zero).
	Timeout time.Duration
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
	c.ownEP = true
	return c, nil
}

// New builds a client over an existing endpoint (a simnet Bus attachment
// in tests, or a shared TCP endpoint). The client installs the endpoint's
// handler; the endpoint is not closed by Client.Close.
func New(ep transport.Endpoint, gateway string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = defaultTimeout
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

// Retried returns how many times this client has sent an operation to
// the gateway again after a transport error.
func (c *Client) Retried() uint64 { return c.retried.Load() }

// Addr returns the client's reply address.
func (c *Client) Addr() string { return c.self.Addr }

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
	if env.Type == proto.KindStoreReply || env.Type == proto.KindQueryAnswer {
		c.inflight.Resolve(env.QueryID, store.ReplyOf(env))
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
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	c.mu.Unlock()
	id, _ := c.inflight.Add(cb, c.timeout) // no limit: never refused
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

// DeleteSync tombstones the record under key and waits for the owner's
// answer; store.ErrNotFound reports a missing key.
func (c *Client) DeleteSync(key geom.Point) error {
	r, err := c.sync(func(cb func(store.Reply)) error {
		return c.dispatch(proto.PurposeStoreDelete, key, nil, cb)
	})
	if err != nil {
		return err
	}
	if !r.Found {
		return store.ErrNotFound
	}
	return nil
}

// QuerySync resolves the overlay node owning point p's Voronoi region and
// returns it with the hop count of the answer.
func (c *Client) QuerySync(p geom.Point) (proto.NodeInfo, int, error) {
	r, err := c.sync(func(cb func(store.Reply)) error {
		return c.dispatch(proto.PurposeQuery, p, nil, cb)
	})
	if err != nil {
		return proto.NodeInfo{}, 0, err
	}
	return r.Owner, r.Hops, nil
}
