package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"voronet/internal/core"
	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// TestStoreEquivalenceUnderChurn drives the same object-store workload —
// joins, puts, overwrites, deletes, a churn phase, more puts — through the
// distributed implementation (internal/node over the in-memory bus) and
// the simulator mirror (internal/core.Store), and requires the two to
// agree key for key: same value answered by the same owner, or both
// deleted/missing.
func TestStoreEquivalenceUnderChurn(t *testing.T) {
	const (
		nStart = 80
		dmin   = 0.02
		rep    = 3
	)
	rng := rand.New(rand.NewSource(2025))

	// Distributed side.
	bus := transport.NewSeededBus(1)
	nodes := make(map[string]*node.Node) // live nodes by address
	var addrs []string                   // live addresses, insertion order
	seq := 0

	// Mirror side, sharing positions with the distributed side.
	ov := core.New(core.Config{NMax: nStart + 64, Seed: 2026})
	st := core.NewStore(ov, rep)
	idOf := make(map[string]core.ObjectID)
	addrOf := make(map[core.ObjectID]string)

	addPeer := func(pos geom.Point) string {
		addr := fmt.Sprintf("p%03d", seq)
		seq++
		ep, err := bus.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		nd := node.New(ep, pos, node.Config{DMin: dmin, LongLinks: 1, Seed: int64(seq), Replication: rep})
		if len(addrs) == 0 {
			if err := nd.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nd.Join(addrs[rng.Intn(len(addrs))]); err != nil {
				t.Fatal(err)
			}
			bus.Drain()
			if !nd.Joined() {
				t.Fatalf("node %s failed to join", addr)
			}
		}
		nodes[addr] = nd
		addrs = append(addrs, addr)

		id, err := st.InsertObject(pos)
		if err != nil {
			t.Fatalf("mirror insert: %v", err)
		}
		idOf[addr] = id
		addrOf[id] = addr
		return addr
	}

	removePeer := func(addr string) {
		nd := nodes[addr]
		if err := nd.Leave(); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
		delete(nodes, addr)
		for i, a := range addrs {
			if a == addr {
				addrs = append(addrs[:i], addrs[i+1:]...)
				break
			}
		}
		if err := st.RemoveObject(idOf[addr]); err != nil {
			t.Fatalf("mirror remove: %v", err)
		}
		delete(addrOf, idOf[addr])
		delete(idOf, addr)
	}

	for i := 0; i < nStart; i++ {
		addPeer(geom.Pt(rng.Float64(), rng.Float64()))
	}

	// Both sides execute every operation from the same origin peer.
	put := func(key geom.Point, value []byte) {
		origin := addrs[rng.Intn(len(addrs))]
		var got *store.Reply
		if err := nodes[origin].Put(key, value, func(r store.Reply) { got = &r }); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
		if got == nil || got.Err != nil || !got.Found {
			t.Fatalf("distributed put %v: %+v", key, got)
		}
		if _, _, err := st.Put(idOf[origin], key, value); err != nil {
			t.Fatalf("mirror put %v: %v", key, err)
		}
	}
	del := func(key geom.Point) {
		origin := addrs[rng.Intn(len(addrs))]
		if err := nodes[origin].Delete(key, nil); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
		if _, err := st.Delete(idOf[origin], key); err != nil && !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("mirror delete %v: %v", key, err)
		}
	}

	var keys []geom.Point
	value := func(i, gen int) []byte { return []byte(fmt.Sprintf("k%03d-g%d", i, gen)) }
	for i := 0; i < 300; i++ {
		keys = append(keys, geom.Pt(rng.Float64(), rng.Float64()))
		put(keys[i], value(i, 0))
	}
	// Overwrites and deletes before the churn phase.
	for i := 0; i < 50; i++ {
		put(keys[i], value(i, 1))
	}
	for i := 260; i < 300; i++ {
		del(keys[i])
	}

	// Churn: 12 joins and 12 leaves interleaved.
	joins, leaves := 0, 0
	for joins < 12 || leaves < 12 {
		if joins < 12 && (leaves >= 12 || rng.Float64() < 0.5) {
			addPeer(geom.Pt(rng.Float64(), rng.Float64()))
			joins++
		} else {
			removePeer(addrs[rng.Intn(len(addrs))])
			leaves++
		}
	}

	// Fresh keys, overwrites and deletes on the churned overlay.
	for i := 300; i < 350; i++ {
		keys = append(keys, geom.Pt(rng.Float64(), rng.Float64()))
		put(keys[i], value(i, 0))
	}
	for i := 50; i < 90; i++ {
		put(keys[i], value(i, 2))
	}
	for i := 220; i < 260; i++ {
		del(keys[i])
	}

	// Key-for-key agreement, read from a random live peer each time.
	for i, key := range keys {
		origin := addrs[rng.Intn(len(addrs))]
		var got *store.Reply
		if err := nodes[origin].Get(key, func(r store.Reply) { got = &r }); err != nil {
			t.Fatal(err)
		}
		bus.Drain()
		if got == nil || got.Err != nil {
			t.Fatalf("distributed get %d %v: %+v", i, key, got)
		}
		mv, _, merr := st.Get(idOf[origin], key)
		switch {
		case merr == nil && !got.Found:
			t.Fatalf("key %d %v: mirror has %q, distributed misses", i, key, mv)
		case errors.Is(merr, store.ErrNotFound) && got.Found:
			t.Fatalf("key %d %v: distributed has %q, mirror misses", i, key, got.Value)
		case merr == nil && !bytes.Equal(mv, got.Value):
			t.Fatalf("key %d %v: mirror %q vs distributed %q", i, key, mv, got.Value)
		case merr != nil && !errors.Is(merr, store.ErrNotFound):
			t.Fatalf("mirror get %d: %v", i, merr)
		}
		if merr == nil {
			owner, err := ov.Owner(key, idOf[origin])
			if err != nil {
				t.Fatalf("mirror owner %d: %v", i, err)
			}
			if got.Owner.Addr != addrOf[owner] {
				t.Fatalf("key %d %v: answered by %s, the mirror's owner is %s", i, key, got.Owner.Addr, addrOf[owner])
			}
		}
	}

	// Equivalence only means anything on a loss-free network: if the
	// fault-free bus dropped a single message, the comparison above
	// validated a degraded run, not the protocol.
	if bus.DroppedCount() != 0 {
		t.Fatalf("fault-free equivalence run dropped %d messages", bus.DroppedCount())
	}
}
