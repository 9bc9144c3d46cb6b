package transport

import (
	"fmt"
	"testing"
)

func pair(t *testing.T, bus *Bus) (Endpoint, Endpoint, *[]string) {
	t.Helper()
	a, err := bus.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	b.SetHandler(func(from string, p []byte) { got = append(got, string(p)) })
	a.SetHandler(func(string, []byte) {})
	return a, b, &got
}

func TestSimnetLatencyReordersDeliveries(t *testing.T) {
	bus := NewSeededBus(7)
	a, _, got := pair(t, bus)
	c, err := bus.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	c.SetHandler(func(string, []byte) {})
	// a→b is slow, c→b is instant: a message sent first on the slow link
	// arrives after a later message on the fast one.
	bus.SetPeerRule("a", LinkRule{MinLatency: 100, MaxLatency: 100})
	if err := a.Send("b", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("b", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	bus.Drain()
	if len(*got) != 2 || (*got)[0] != "fast" || (*got)[1] != "slow" {
		t.Fatalf("delivery order %v, want [fast slow]", *got)
	}
	if bus.Now() != 100 {
		t.Fatalf("virtual clock %d, want 100", bus.Now())
	}
}

func TestSimnetEqualLatencyIsFIFO(t *testing.T) {
	bus := NewSeededBus(7)
	a, _, got := pair(t, bus)
	bus.SetDefaultRule(LinkRule{MinLatency: 5, MaxLatency: 5})
	for i := 0; i < 6; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bus.Drain()
	for i, m := range *got {
		if m != fmt.Sprintf("m%d", i) {
			t.Fatalf("out of order: %v", *got)
		}
	}
}

func TestSimnetSeededDropsAreDeterministic(t *testing.T) {
	run := func(seed int64) (uint64, uint64, []string) {
		bus := NewSeededBus(seed)
		a, _, got := pair(t, bus)
		bus.SetDefaultRule(LinkRule{Drop: 0.3})
		for i := 0; i < 50; i++ {
			if err := a.Send("b", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		bus.Drain()
		return bus.DeliveredCount(), bus.DroppedCount(), *got
	}
	d1, x1, g1 := run(42)
	d2, x2, g2 := run(42)
	if d1 != d2 || x1 != x2 || len(g1) != len(g2) {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("same seed delivered different messages: %v vs %v", g1, g2)
		}
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("want both drops and deliveries, got %d/%d", d1, x1)
	}
	d3, _, _ := run(43)
	if d3 == d1 {
		t.Log("different seeds happened to agree (possible but unlikely)")
	}
}

func TestSimnetScheduledOutageWindow(t *testing.T) {
	bus := NewSeededBus(1)
	a, _, got := pair(t, bus)
	c, err := bus.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	// Messages take 10 ticks; host a is down for sends in [10, 20).
	bus.SetDefaultRule(LinkRule{MinLatency: 10, MaxLatency: 10})
	bus.SetPeerRule("a", LinkRule{MinLatency: 10, MaxLatency: 10, DropFrom: 10, DropUntil: 20})
	if err := a.Send("b", []byte("before")); err != nil { // sent at t=0
		t.Fatal(err)
	}
	bus.Drain()                                           // clock advances to 10
	if err := a.Send("b", []byte("during")); err != nil { // sent at t=10: dropped
		t.Fatal(err)
	}
	bus.Drain()
	if err := a.Send("b", []byte("also during")); err != nil { // still t=10
		t.Fatal(err)
	}
	if err := c.Send("b", []byte("tick")); err != nil { // delivered at t=20
		t.Fatal(err)
	}
	bus.Drain()                                          // clock 20: the outage window closes
	if err := a.Send("b", []byte("after")); err != nil { // sent at t=20: delivered
		t.Fatal(err)
	}
	bus.Drain()
	want := []string{"before", "tick", "after"}
	if len(*got) != 3 || (*got)[0] != want[0] || (*got)[1] != want[1] || (*got)[2] != want[2] {
		t.Fatalf("outage window delivered %v, want %v", *got, want)
	}
	if bus.DroppedCount() != 2 {
		t.Fatalf("Dropped=%d, want 2", bus.DroppedCount())
	}
}

func TestSimnetPartitionAndHeal(t *testing.T) {
	bus := NewSeededBus(1)
	eps := map[string]Endpoint{}
	recv := map[string][]string{}
	for _, addr := range []string{"w1", "w2", "e1", "e2"} {
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		addr := addr
		ep.SetHandler(func(from string, p []byte) { recv[addr] = append(recv[addr], string(p)) })
		eps[addr] = ep
	}
	bus.InstallPartition("split", []string{"w1", "w2"}, []string{"e1", "e2"})
	eps["w1"].Send("w2", []byte("in-west"))
	eps["w1"].Send("e1", []byte("cross"))
	eps["e1"].Send("e2", []byte("in-east"))
	bus.Drain()
	if len(recv["w2"]) != 1 || len(recv["e2"]) != 1 {
		t.Fatalf("intra-partition traffic blocked: %v", recv)
	}
	if len(recv["e1"]) != 0 {
		t.Fatalf("cross-partition message delivered: %v", recv["e1"])
	}
	if bus.DroppedCount() != 1 {
		t.Fatalf("Dropped=%d, want 1", bus.DroppedCount())
	}
	bus.Heal()
	eps["w1"].Send("e1", []byte("healed"))
	bus.Drain()
	if len(recv["e1"]) != 1 || recv["e1"][0] != "healed" {
		t.Fatalf("healed link still dropping: %v", recv["e1"])
	}
}

func TestSimnetCrashedDestinationCountsDropped(t *testing.T) {
	bus := NewSeededBus(1)
	a, b, _ := pair(t, bus)
	if err := a.Send("b", []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	b.Close() // crash with the message queued
	bus.Drain()
	if bus.DroppedCount() != 1 || bus.DeliveredCount() != 0 {
		t.Fatalf("Delivered=%d Dropped=%d, want 0/1", bus.DeliveredCount(), bus.DroppedCount())
	}
	// After the crash, sends to the address fail structurally.
	if err := a.Send("b", []byte("late")); err == nil {
		t.Fatal("send to crashed peer must error")
	}
}

func TestSimnetPeerRuleSlowsBothDirections(t *testing.T) {
	bus := NewSeededBus(1)
	a, _, got := pair(t, bus)
	c, err := bus.Attach("c")
	if err != nil {
		t.Fatal(err)
	}
	var atC []string
	c.SetHandler(func(from string, p []byte) { atC = append(atC, string(p)) })
	bus.SetPeerRule("c", LinkRule{MinLatency: 50, MaxLatency: 50})
	if err := c.Send("b", []byte("from straggler")); err != nil { // out of c: slow
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("fast path")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("c", []byte("to straggler")); err != nil { // into c: slow
		t.Fatal(err)
	}
	bus.Drain()
	if (*got)[0] != "fast path" || (*got)[1] != "from straggler" {
		t.Fatalf("straggler output not delayed: %v", *got)
	}
	if len(atC) != 1 {
		t.Fatalf("straggler input lost: %v", atC)
	}
}
