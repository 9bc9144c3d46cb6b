package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/transport"
)

// putKey issues a Put from nd and drains the bus, failing the test unless
// the acknowledgement arrives.
func (c *cluster) putKey(t *testing.T, nd *Node, key geom.Point, value []byte) {
	t.Helper()
	var got *store.Reply
	if err := nd.Put(key, value, func(r store.Reply) { got = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if got == nil {
		t.Fatalf("put %v: no reply", key)
	}
	if got.Err != nil || !got.Found {
		t.Fatalf("put %v: %+v", key, got)
	}
}

// getKey issues a Get from nd and drains the bus, returning the reply.
func (c *cluster) getKey(t *testing.T, nd *Node, key geom.Point) store.Reply {
	t.Helper()
	var got *store.Reply
	if err := nd.Get(key, func(r store.Reply) { got = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if got == nil {
		t.Fatalf("get %v: no reply", key)
	}
	if got.Err != nil {
		t.Fatalf("get %v: %v", key, got.Err)
	}
	return *got
}

func TestStorePutGetDeleteSmall(t *testing.T) {
	c := newCluster(t, 20, 0.02, 101)
	key := geom.Pt(0.37, 0.62)

	// Missing key: authoritative miss.
	if r := c.getKey(t, c.nodes[3], key); r.Found {
		t.Fatalf("missing key found: %+v", r)
	}

	c.putKey(t, c.nodes[5], key, []byte("hello"))
	r := c.getKey(t, c.nodes[11], key)
	if !r.Found || !bytes.Equal(r.Value, []byte("hello")) || r.Version != 1 {
		t.Fatalf("get after put: %+v", r)
	}

	// Overwrite bumps the version.
	c.putKey(t, c.nodes[7], key, []byte("world"))
	r = c.getKey(t, c.nodes[2], key)
	if !r.Found || !bytes.Equal(r.Value, []byte("world")) || r.Version != 2 {
		t.Fatalf("get after overwrite: %+v", r)
	}

	// A deleted key is a miss from every origin.
	var del *store.Reply
	if err := c.nodes[9].Delete(key, func(r store.Reply) { del = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if del == nil || del.Err != nil || !del.Found {
		t.Fatalf("delete: %+v", del)
	}
	for _, nd := range c.nodes {
		if r := c.getKey(t, nd, key); r.Found {
			t.Fatalf("deleted key served to %s: %+v", nd.Info().Addr, r)
		}
	}

	// Deleting again reports not found.
	del = nil
	if err := c.nodes[4].Delete(key, func(r store.Reply) { del = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if del == nil || del.Found {
		t.Fatalf("double delete: %+v", del)
	}

	// A put over the tombstone resurrects the key.
	c.putKey(t, c.nodes[1], key, []byte("again"))
	r = c.getKey(t, c.nodes[14], key)
	if !r.Found || !bytes.Equal(r.Value, []byte("again")) {
		t.Fatalf("resurrect: %+v", r)
	}
}

// holdEndpoint wraps a node's endpoint and holds back the KindReplicaSync
// frames it sends to one peer until release: a replica push still in
// flight when the PUT's ack reaches the origin.
type holdEndpoint struct {
	transport.Endpoint
	to   string
	held [][]byte
}

func (h *holdEndpoint) Send(to string, payload []byte) error {
	if to == h.to {
		if env, err := proto.Decode(payload); err == nil && env.Type == proto.KindReplicaSync {
			h.held = append(h.held, bytes.Clone(payload))
			return nil
		}
	}
	return h.Endpoint.Send(to, payload)
}

func (h *holdEndpoint) release() error {
	for _, p := range h.held {
		if err := h.Endpoint.Send(h.to, p); err != nil {
			return err
		}
	}
	h.held = nil
	return nil
}

// TestGetAfterAckedPutReturnsIt: a GET issued after a PUT's ack returns
// that version, even while the owner's push of it to a replica is held
// back and the GET's greedy path passes that replica before the owner.
// A replica that answered on the path would return the version before.
func TestGetAfterAckedPutReturnsIt(t *testing.T) {
	c := newCluster(t, 60, 0.02, 150)
	// Find a key and an origin whose path reaches a node holding the
	// key's replica after the origin and before the owner.
	var key geom.Point
	var origin, owner, replica *Node
search:
	for i := 0; i < 100; i++ {
		key = geom.Pt(c.rng.Float64(), c.rng.Float64())
		c.putKey(t, c.nodes[0], key, []byte("v1"))
		for _, nd := range c.nodes {
			p := c.walk(t, nd, key)
			for _, hop := range p[1 : len(p)-1] {
				if _, ok := hop.StoreLookup(key); ok {
					origin, owner, replica = nd, p[len(p)-1], hop
					break search
				}
			}
		}
	}
	if replica == nil {
		t.Fatal("no greedy path passes a replica before the owner")
	}

	// The serial bus runs no node goroutine, so the owner's endpoint can
	// be swapped between drains.
	hold := &holdEndpoint{Endpoint: owner.ep, to: replica.Info().Addr}
	owner.ep = hold
	c.putKey(t, origin, key, []byte("v2"))
	if rec, _ := replica.StoreLookup(key); rec.Version != 1 || len(hold.held) == 0 {
		t.Fatalf("the replica's copy is at version %d with %d pushes held; want 1 and the push held", rec.Version, len(hold.held))
	}
	r := c.getKey(t, origin, key)
	if !r.Found || r.Version != 2 || string(r.Value) != "v2" {
		t.Errorf("GET after the acked PUT of v2 from %s: version %d %q, answered by %s (owner %s)",
			origin.Info().Addr, r.Version, r.Value, r.Owner.Addr, owner.Info().Addr)
	}
	if r.Owner.Addr != owner.Info().Addr {
		t.Errorf("GET answered by %s, not the owner %s", r.Owner.Addr, owner.Info().Addr)
	}
	if err := hold.release(); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if rec, _ := replica.StoreLookup(key); rec.Version != 2 {
		t.Fatalf("the released push left the replica at version %d", rec.Version)
	}
}

func TestStoreUnjoinedErrors(t *testing.T) {
	c := newCluster(t, 1, 0.05, 102)
	solo := c.nodes[0]
	// The bootstrap node owns everything; its own ops resolve locally.
	c.putKey(t, solo, geom.Pt(0.5, 0.5), []byte("v"))
	if r := c.getKey(t, solo, geom.Pt(0.5, 0.5)); !r.Found {
		t.Fatalf("solo get: %+v", r)
	}

	ep, err := c.bus.Attach("outsider")
	if err != nil {
		t.Fatal(err)
	}
	out := New(ep, geom.Pt(0.1, 0.1), Config{DMin: 0.05})
	if err := out.Put(geom.Pt(0.2, 0.2), []byte("x"), nil); err != ErrNotJoined {
		t.Fatalf("put before join: %v", err)
	}
	if err := out.Get(geom.Pt(0.2, 0.2), nil); err != ErrNotJoined {
		t.Fatalf("get before join: %v", err)
	}
	if err := out.Delete(geom.Pt(0.2, 0.2), nil); err != ErrNotJoined {
		t.Fatalf("delete before join: %v", err)
	}
}

// TestStoreReplicationFactor checks that a put lands on the owner plus the
// R Voronoi neighbours of the owner closest to the key.
func TestStoreReplicationFactor(t *testing.T) {
	c := newCluster(t, 40, 0.02, 103)
	for i := 0; i < 20; i++ {
		key := geom.Pt(c.rng.Float64(), c.rng.Float64())
		c.putKey(t, c.nodes[c.rng.Intn(len(c.nodes))], key, []byte{byte(i)})

		// Ground-truth owner: nearest node to the key.
		owner := c.nodes[0]
		for _, nd := range c.nodes {
			if geom.Dist2(nd.Info().Pos, key) < geom.Dist2(owner.Info().Pos, key) {
				owner = nd
			}
		}
		copies := 0
		for _, nd := range c.nodes {
			if _, ok := nd.kv.Lookup(key); ok {
				copies++
			}
		}
		want := 1 + min(owner.cfg.Replication, len(owner.Neighbors()))
		if copies < want {
			t.Fatalf("key %v: %d copies, want >= %d", key, copies, want)
		}
		if _, ok := owner.kv.Get(key); !ok {
			t.Fatalf("key %v: owner %s holds no copy", key, owner.Info().Addr)
		}
	}
}

// TestStoreEndToEndChurn is the acceptance scenario: 64 nodes, 500 keys
// put from random origins and read back from different origins, then a
// churn phase (12 joins + 12 leaves) after which every key is still
// retrievable with its correct value.
func TestStoreEndToEndChurn(t *testing.T) {
	const (
		nNodes = 64
		nKeys  = 500
		dmin   = 0.02
	)
	c := newCluster(t, nNodes, dmin, 104)

	type kv struct {
		key    geom.Point
		value  []byte
		origin string
	}
	keys := make([]kv, 0, nKeys)
	for i := 0; i < nKeys; i++ {
		e := kv{
			key:   geom.Pt(c.rng.Float64(), c.rng.Float64()),
			value: []byte(fmt.Sprintf("value-%04d", i)),
		}
		nd := c.nodes[c.rng.Intn(len(c.nodes))]
		e.origin = nd.Info().Addr
		c.putKey(t, nd, e.key, e.value)
		keys = append(keys, e)
	}

	verify := func(phase string) {
		for i, e := range keys {
			// Read from an origin different from the one that wrote.
			var reader *Node
			for {
				reader = c.nodes[c.rng.Intn(len(c.nodes))]
				if reader.Info().Addr != e.origin {
					break
				}
			}
			r := c.getKey(t, reader, e.key)
			if !r.Found {
				t.Fatalf("%s: key %d %v lost", phase, i, e.key)
			}
			if !bytes.Equal(r.Value, e.value) {
				t.Fatalf("%s: key %d %v: got %q want %q", phase, i, e.key, r.Value, e.value)
			}
		}
	}
	verify("pre-churn")

	// Churn: 12 joins and 12 leaves interleaved.
	joins, leaves := 0, 0
	for joins < 12 || leaves < 12 {
		if joins < 12 && (leaves >= 12 || c.rng.Float64() < 0.5) {
			c.addNode(t, geom.Pt(c.rng.Float64(), c.rng.Float64()), dmin)
			joins++
		} else {
			idx := c.rng.Intn(len(c.nodes))
			nd := c.nodes[idx]
			if err := nd.Leave(); err != nil {
				t.Fatal(err)
			}
			c.bus.Drain()
			nd.ep.Close()
			c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
			leaves++
		}
	}
	c.checkViewsAgainstReference(t)
	verify("post-churn")

	// Writes against the churned overlay must be consistent too: stale
	// copies left behind by handoff may never answer for overwritten or
	// deleted keys.
	for i := 0; i < 50; i++ {
		keys[i].value = []byte(fmt.Sprintf("value-%04d-v2", i))
		nd := c.nodes[c.rng.Intn(len(c.nodes))]
		keys[i].origin = nd.Info().Addr
		c.putKey(t, nd, keys[i].key, keys[i].value)
	}
	for i := 50; i < 100; i++ {
		if err := c.nodes[c.rng.Intn(len(c.nodes))].Delete(keys[i].key, nil); err != nil {
			t.Fatal(err)
		}
		c.bus.Drain()
	}
	for i := 50; i < 100; i++ {
		if r := c.getKey(t, c.nodes[c.rng.Intn(len(c.nodes))], keys[i].key); r.Found {
			t.Fatalf("post-churn delete: key %d still served: %+v", i, r)
		}
	}
	keys = append(keys[:50], keys[100:]...)
	verify("post-churn-writes")
}

// crossCluster is the five-node cross the placement tests stand on: an owner at
// the centre and four neighbours at equal distance from it, joined in an
// order that keeps every intermediate triangulation non-degenerate.
func crossCluster(t *testing.T) (c *cluster, centre *Node) {
	t.Helper()
	c = newCluster(t, 0, 0.02, 140)
	for _, p := range []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.5), geom.Pt(0.5, 0.25), geom.Pt(0.75, 0.5), geom.Pt(0.5, 0.75),
	} {
		c.addNode(t, p, 0.02)
	}
	c.checkViewsAgainstReference(t)
	return c, c.nodes[0]
}

// TestPlacementPlanMatchesRanking checks the plan against the rule written
// the slow way, over random views: a record the view owns is due at exactly
// the r members of the address-sorted list that a stable sort by distance
// puts first, as replica refresh; a record it does not own is due at
// ownerForKey's answer alone, as a hand-off. Lattice positions make ties
// routine.
func TestPlacementPlanMatchesRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	pt := func() geom.Point { return geom.Pt(float64(rng.Intn(9))/8, float64(rng.Intn(9))/8) }
	for trial := 0; trial < 500; trial++ {
		self := proto.NodeInfo{Addr: "self", Pos: pt()}
		vns := make([]proto.NodeInfo, rng.Intn(8))
		for i := range vns {
			vns[i] = proto.NodeInfo{Addr: fmt.Sprintf("v%d", i), Pos: pt()}
		}
		r := 1 + rng.Intn(4)
		recs := make([]proto.StoreRecord, 1+rng.Intn(6))
		for i := range recs {
			recs[i] = proto.StoreRecord{Key: pt(), Version: uint64(i + 1)}
		}
		due := map[uint64][]string{} // record version → "addr/handoff", in plan order
		for _, p := range placementPlan(self, vns, r, recs, false) {
			for _, rec := range p.recs {
				due[rec.Version] = append(due[rec.Version], fmt.Sprintf("%s/%v", p.addr, p.handoff))
			}
		}
		for _, rec := range recs {
			var want []string
			if owner, isSelf := ownerForKey(self, vns, rec.Key); !isSelf {
				want = []string{owner.Addr + "/true"}
			} else {
				ranked := append([]proto.NodeInfo(nil), vns...)
				sort.SliceStable(ranked, func(i, j int) bool {
					return geom.Dist2(ranked[i].Pos, rec.Key) < geom.Dist2(ranked[j].Pos, rec.Key)
				})
				for _, v := range ranked[:min(r, len(ranked))] {
					want = append(want, v.Addr+"/false")
				}
			}
			got := due[rec.Version]
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: key %v (self %v, view %v, r=%d) due at %v, want %v", trial, rec.Key, self, vns, r, got, want)
			}
		}
	}
}

// TestPlacementHotPathAllocs: sharing the rule costs the PUT path nothing.
// A PUT's replica push allocates no more than the separate per-record sort
// it replaced (38 per push-and-delivery of one record to three replicas at
// e0d111f, measured by this same loop; 34 now).
func TestPlacementHotPathAllocs(t *testing.T) {
	c, centre := crossCluster(t)
	key := geom.Pt(0.5625, 0.5625)
	c.putKey(t, centre, key, []byte("v"))
	// Two neighbours tie for the last of the three seats and only one
	// takes it: the owner and exactly three replicas hold the key.
	holders := 0
	for _, nd := range c.nodes {
		if _, ok := nd.StoreLookup(key); ok {
			holders++
		}
	}
	rec, ok := centre.StoreLookup(key)
	if !ok || holders != 4 {
		t.Fatalf("%d holders (owner holds: %v), want the owner and 3 replicas", holders, ok)
	}
	recs := []proto.StoreRecord{rec}
	a := testing.AllocsPerRun(200, func() {
		centre.replicateRecords(recs, "")
		c.bus.Drain()
	})
	t.Logf("replicateRecords + delivery of one record to 3 replicas: %v allocs", a)
	if a > 38 {
		t.Errorf("replicateRecords: %v allocs per push, e0d111f's was 38", a)
	}
}

// TestStoreRepliesUnderScriptedChurn replays one seeded script of joins,
// alternating graceful leaves and crashes, puts, deletes and reads that
// revisit earlier keys, and requires every reply to match a map of the
// acknowledged writes: a put acks, a delete finds exactly the live keys,
// a read returns the last value written or nothing after a delete. A
// closing sweep reads every key again from spread-out origins.
func TestStoreRepliesUnderScriptedChurn(t *testing.T) {
	const (
		seed    = 77
		initial = 24
		rounds  = 8
		opsPer  = 20
	)
	c := newCluster(t, initial, 0.02, seed)
	script := rand.New(rand.NewSource(seed + 1))
	live := map[geom.Point][]byte{}
	var keys []geom.Point
	check := func(what string, k geom.Point, r store.Reply) {
		t.Helper()
		want, found := live[k]
		if r.Err != nil || r.Found != found || !bytes.Equal(r.Value, want) {
			t.Fatalf("%s %v: %+v, want found=%v value %q", what, k, r, found, want)
		}
	}
	for round := 0; round < rounds; round++ {
		c.addNode(t, geom.Pt(script.Float64(), script.Float64()), 0.02)
		idx := 1 + script.Intn(len(c.nodes)-1)
		victim := c.nodes[idx]
		if round%2 == 0 {
			if err := victim.Leave(); err != nil {
				t.Fatalf("round %d leave: %v", round, err)
			}
		} else {
			victim.ep.Close() // crash: no protocol, links die
			gone := victim.Info().Addr
			for i, nd := range c.nodes {
				if i != idx {
					nd.NotifyDeparted(gone)
				}
			}
		}
		c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
		c.bus.Drain()

		for op := 0; op < opsPer; op++ {
			origin := c.nodes[script.Intn(len(c.nodes))]
			switch {
			case op%4 == 0 || len(keys) == 0:
				k := geom.Pt(script.Float64(), script.Float64())
				v := []byte(fmt.Sprintf("v%d-%d", round, op))
				c.putKey(t, origin, k, v)
				keys = append(keys, k)
				live[k] = v
			case op%7 == 0:
				k := keys[script.Intn(len(keys))]
				var r *store.Reply
				if err := origin.Delete(k, func(rep store.Reply) { r = &rep }); err != nil {
					t.Fatalf("round %d delete: %v", round, err)
				}
				c.bus.Drain()
				if r == nil {
					t.Fatalf("round %d delete %v: no reply", round, k)
				}
				if _, found := live[k]; r.Err != nil || r.Found != found {
					t.Fatalf("round %d delete %v: %+v, want found=%v", round, k, *r, found)
				}
				delete(live, k)
			default:
				k := keys[script.Intn(len(keys))]
				check(fmt.Sprintf("round %d get", round), k, c.getKey(t, origin, k))
			}
		}
	}
	for i, k := range keys {
		check("sweep get", k, c.getKey(t, c.nodes[(i*3+1)%len(c.nodes)], k))
	}
}
