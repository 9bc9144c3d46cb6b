package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBusFIFODelivery(t *testing.T) {
	bus := NewSeededBus(1)
	a, err := bus.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	b.SetHandler(func(from string, payload []byte) {
		got = append(got, string(payload))
	})
	a.SetHandler(func(string, []byte) {})
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n := bus.Drain()
	if n != 5 {
		t.Fatalf("delivered %d", n)
	}
	for i, m := range got {
		if m != fmt.Sprintf("m%d", i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestBusHandlerEnqueues(t *testing.T) {
	// Messages enqueued by handlers during a drain are delivered in the
	// same drain.
	bus := NewSeededBus(1)
	a, _ := bus.Attach("a")
	b, _ := bus.Attach("b")
	count := 0
	b.SetHandler(func(from string, payload []byte) {
		count++
		if count < 4 {
			b.Send("b", []byte("again"))
		}
	})
	a.SetHandler(func(string, []byte) {})
	a.Send("b", []byte("go"))
	bus.Drain()
	if count != 4 {
		t.Fatalf("chained deliveries: %d", count)
	}
	if bus.Pending() != 0 {
		t.Fatalf("pending after drain: %d", bus.Pending())
	}
}

func TestBusErrors(t *testing.T) {
	bus := NewSeededBus(1)
	a, _ := bus.Attach("a")
	if _, err := bus.Attach("a"); err == nil {
		t.Fatal("duplicate attach must fail")
	}
	if err := a.Send("ghost", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to ghost: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("a", nil); err == nil {
		t.Fatal("send after close must fail")
	}
}

// TestBusDropRate: seeded probabilistic loss (LinkRule.Drop) is booked
// exactly — every accepted send is delivered or counted dropped, the
// handler sees exactly the delivered ones — and one seed drops the same
// messages every run.
func TestBusDropRate(t *testing.T) {
	const sends = 1000
	run := func() (handled int, bus *Bus) {
		bus = NewSeededBus(7)
		a, _ := bus.Attach("a")
		b, _ := bus.Attach("b")
		b.SetHandler(func(string, []byte) { handled++ })
		a.SetHandler(func(string, []byte) {})
		bus.SetDefaultRule(LinkRule{Drop: 0.25})
		for i := 0; i < sends; i++ {
			if err := a.Send("b", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		bus.Drain()
		return handled, bus
	}
	handled, bus := run()
	if bus.SendCount() != sends {
		t.Fatalf("Sends=%d, want %d", bus.SendCount(), sends)
	}
	// Drops are observable, not inferred from silence.
	if d, dr := bus.DeliveredCount(), bus.DroppedCount(); d+dr != sends || d != uint64(handled) {
		t.Fatalf("Delivered=%d + Dropped=%d != %d sends, or != %d handled", d, dr, sends, handled)
	}
	if dr := bus.DroppedCount(); dr < 200 || dr > 300 {
		t.Fatalf("Dropped=%d of %d at 25%% loss", dr, sends)
	}
	if again, _ := run(); again != handled {
		t.Fatalf("one seed delivered %d, then %d", handled, again)
	}
}

func TestBusPayloadIsolation(t *testing.T) {
	// The bus must copy payloads: mutating the sender's buffer after Send
	// must not affect delivery.
	bus := NewSeededBus(1)
	a, _ := bus.Attach("a")
	b, _ := bus.Attach("b")
	var got string
	b.SetHandler(func(_ string, p []byte) { got = string(p) })
	buf := []byte("original")
	a.Send("b", buf)
	copy(buf, "CLOBBER!")
	bus.Drain()
	if got != "original" {
		t.Fatalf("payload mutated in flight: %q", got)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	type msg struct {
		from string
		body string
	}
	ch := make(chan msg, 10)
	b.SetHandler(func(from string, payload []byte) {
		ch <- msg{from, string(payload)}
	})
	a.SetHandler(func(from string, payload []byte) {
		ch <- msg{from, string(payload)}
	})

	if err := a.Send(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if m.body != "hello" || m.from != a.Addr() {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}

	// Reply over a fresh connection from b to a.
	if err := b.Send(a.Addr(), []byte("world")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if m.body != "world" || m.from != b.Addr() {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPManyFrames(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	seen := 0
	b.SetHandler(func(string, []byte) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	for i := 0; i < 200; i++ {
		if err := a.Send(b.Addr(), []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := seen
		mu.Unlock()
		if n == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d/200 frames", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addr, []byte("x")); err == nil {
		t.Fatal("send after close must fail")
	}
}
