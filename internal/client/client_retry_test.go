package client

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// shedGateway is a scripted overlay stand-in on the bus: it answers each
// routed store op with an overload shed until its budget runs out, then
// with a normal ack. It lets a test control exactly how many sheds a
// single logical operation sees.
type shedGateway struct {
	ep    transport.Endpoint
	mu    sync.Mutex
	sheds int // remaining replies to refuse
	seen  int // routed requests received
}

func newShedGateway(t *testing.T, bus *transport.Bus, sheds int) *shedGateway {
	t.Helper()
	ep, err := bus.Attach("gw")
	if err != nil {
		t.Fatal(err)
	}
	return serveSheds(ep, sheds)
}

// serveSheds makes ep a shedGateway.
func serveSheds(ep transport.Endpoint, sheds int) *shedGateway {
	g := &shedGateway{ep: ep, sheds: sheds}
	ep.SetHandler(func(from string, payload []byte) {
		env, err := proto.Decode(payload)
		if err != nil || env.Type != proto.KindRoute {
			return
		}
		reply := &proto.Envelope{
			Type:    proto.KindStoreReply,
			From:    proto.NodeInfo{Addr: "gw"},
			QueryID: env.QueryID,
		}
		g.mu.Lock()
		g.seen++
		if g.sheds > 0 {
			g.sheds--
			reply.Shed = true
		} else {
			reply.Found = true
			reply.Version = 1
		}
		g.mu.Unlock()
		_ = g.ep.Send(env.Origin.Addr, proto.AppendEncode(nil, reply))
	})
	return g
}

func (g *shedGateway) requests() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seen
}

// TestClientNoRetryByDefault: a shed surfaces as store.ErrOverloaded on
// the first reply — the client never re-dispatches a refused operation;
// what to do about overload is the caller's call.
func TestClientNoRetryByDefault(t *testing.T) {
	bus := transport.NewSeededBus(1)
	gw := newShedGateway(t, bus, 1)
	cep, err := bus.Attach("client")
	if err != nil {
		t.Fatal(err)
	}
	cl := New(cep, "gw", 2*time.Second)
	defer cl.Close()

	var mu sync.Mutex
	var got *store.Reply
	if err := cl.Put(geom.Pt(0.1, 0.9), []byte("v"), func(r store.Reply) {
		mu.Lock()
		got = &r
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("no reply after drain")
	}
	if !errors.Is(got.Err, store.ErrOverloaded) {
		t.Fatalf("reply err = %v, want store.ErrOverloaded", got.Err)
	}
	if n := cl.Retried(); n != 0 {
		t.Fatalf("Retried() = %d, want 0", n)
	}
	if n := gw.requests(); n != 1 {
		t.Fatalf("gateway saw %d requests, want 1", n)
	}
}

// resetOnce is a client's endpoint whose next Send, once armed, fails the
// way a write to a connection the peer has reset does. Over real sockets
// that failure needs the send to land in the instant between the peer's
// reset and the local lane noticing it; the test needs it every time.
type resetOnce struct {
	transport.Endpoint
	armed atomic.Bool
}

func (r *resetOnce) Send(to string, payload []byte) error {
	if r.armed.CompareAndSwap(true, false) {
		return errors.New("write: connection reset by peer")
	}
	return r.Endpoint.Send(to, payload)
}

// TestClientRetriesFailedGatewaySend: the gateway goes away and comes
// back on the same address between two GETs, and the client's send on
// the connection it had fails. The transport has dropped that connection,
// so the client sends once more, which dials the new incarnation; the
// caller sees a GET that worked, and Retried() the retry.
func TestClientRetriesFailedGatewaySend(t *testing.T) {
	listen := func(addr string) *transport.TCPEndpoint {
		t.Helper()
		ep, err := transport.ListenTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	gwEP := listen("127.0.0.1:0")
	addr := gwEP.Addr()
	serveSheds(gwEP, 0)
	tcp := listen("127.0.0.1:0")
	cep := &resetOnce{Endpoint: tcp}
	cl := New(cep, addr, 5*time.Second)
	defer cl.Close()

	key := geom.Pt(0.5, 0.5)
	if _, err := cl.GetSync(key); err != nil {
		t.Fatalf("first get: %v", err)
	}
	gwEP.Close()
	// Let the client's transport see the FIN, so that what follows tests
	// the retry and not a frame swallowed by a half-closed socket.
	for deadline := time.Now().Add(5 * time.Second); tcp.Metrics().Snapshot().Gauges["tcp_open_conns"] != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client still holds a connection to the closed gateway")
		}
	}
	gw2 := serveSheds(listen(addr), 0)

	cep.armed.Store(true)
	if _, err := cl.GetSync(key); err != nil {
		t.Fatalf("get after gateway restart: %v", err)
	}
	if n := cl.Retried(); n != 1 {
		t.Fatalf("Retried() = %d, want 1", n)
	}
	if n := gw2.requests(); n != 1 {
		t.Fatalf("restarted gateway saw %d requests, want 1", n)
	}
}
