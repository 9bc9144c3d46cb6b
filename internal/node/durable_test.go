package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"voronet/internal/geom"
	"voronet/internal/proto"
	"voronet/internal/store"
	"voronet/internal/wal"
)

// newDurableCluster builds a cluster whose nodes all log to per-address
// WAL directories under one temp root, so tests can crash a node and
// rebuild it from disk. cfgMut relies on addNode assigning addresses in
// sequence (n000, n001, ...), the same order it is invoked in.
func newDurableCluster(t *testing.T, n int, seed int64, mut func(*Config)) (*cluster, string) {
	t.Helper()
	walRoot := t.TempDir()
	i := 0
	c := newClusterCfg(t, n, 0.02, seed, func(cfg *Config) {
		cfg.WALDir = filepath.Join(walRoot, fmt.Sprintf("n%03d", i))
		i++
		if mut != nil {
			mut(cfg)
		}
	})
	return c, walRoot
}

// TestDurableRestartRecovers crashes a node (transport cut, no flush
// beyond what each acked op already appended), rebuilds it from its WAL
// at the same address, and requires (a) byte-exact recovery of every
// record it held and (b) no acked write lost cluster-wide after rejoin.
func TestDurableRestartRecovers(t *testing.T) {
	c, _ := newDurableCluster(t, 16, 201, nil)
	rng := rand.New(rand.NewSource(7))
	keys := make([]geom.Point, 0, 40)
	for k := 0; k < 40; k++ {
		key := geom.Pt(rng.Float64(), rng.Float64())
		keys = append(keys, key)
		c.putKey(t, c.nodes[k%len(c.nodes)], key, []byte(fmt.Sprintf("val-%03d", k)))
	}
	victim := c.nodes[3]
	addr, pos, cfg := victim.Info().Addr, victim.Info().Pos, victim.cfg
	before := victim.StoreSnapshot()
	if len(before) == 0 {
		t.Fatalf("victim %s holds no records; test needs a loaded victim", addr)
	}

	// Crash: the endpoint vanishes mid-flight, survivors repair around it.
	victim.ep.Close()
	for _, nd := range c.nodes {
		if nd != victim {
			nd.NotifyDeparted(addr)
		}
	}
	c.bus.Drain()

	// Restart from disk at the same address.
	ep, err := c.bus.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	nd2, stats, err := NewDurable(ep, pos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	if stats.CorruptFrames != 0 || stats.Truncated {
		t.Fatalf("clean shutdownless crash produced corruption flags: %+v", stats)
	}
	for _, rec := range before {
		got, ok := nd2.StoreLookup(rec.Key)
		if !ok || got.Version != rec.Version || got.Deleted != rec.Deleted || !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("record %v not recovered from WAL: got %+v ok=%v want %+v", rec.Key, got, ok, rec)
		}
	}

	if err := nd2.Join(c.nodes[0].Info().Addr); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if !nd2.Joined() {
		t.Fatal("restarted node failed to rejoin")
	}
	c.nodes[3] = nd2
	for _, nd := range c.nodes {
		nd.SyncReplicas()
	}
	c.bus.Drain()
	c.checkViewsAgainstReference(t)
	for k, key := range keys {
		r := c.getKey(t, c.nodes[(k+5)%len(c.nodes)], key)
		if !r.Found || !bytes.Equal(r.Value, []byte(fmt.Sprintf("val-%03d", k))) {
			t.Fatalf("acked write %d lost across crash-restart: %+v", k, r)
		}
	}
}

// TestShutdownLosesNoAckedWrite drives acked writes through a node, shuts
// it down gracefully, and requires every acked write to survive in the
// remaining cluster — plus a drained WAL (the records were handed off)
// and synchronous refusal of new work while draining.
func TestShutdownLosesNoAckedWrite(t *testing.T) {
	c, _ := newDurableCluster(t, 12, 202, nil)
	rng := rand.New(rand.NewSource(11))
	keys := make([]geom.Point, 0, 30)
	for k := 0; k < 30; k++ {
		key := geom.Pt(rng.Float64(), rng.Float64())
		keys = append(keys, key)
		c.putKey(t, c.nodes[k%len(c.nodes)], key, []byte(fmt.Sprintf("ack-%03d", k)))
	}
	victim := c.nodes[4]

	// The draining gate refuses origin work before the view changes.
	victim.draining.Store(true)
	if err := victim.Put(geom.Pt(0.5, 0.5), []byte("late"), nil); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("draining put: got %v, want ErrOverloaded", err)
	}
	if counter(victim, "store_shed_total") == 0 {
		t.Fatal("draining refusal not counted in store_shed_total")
	}

	if err := victim.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()

	// Leave handed everything off and reset the log: replay sees nothing.
	stats, err := wal.Replay(victim.cfg.WALDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Fatalf("WAL not drained by graceful shutdown: %d records remain", stats.Records)
	}

	live := make([]*Node, 0, len(c.nodes)-1)
	for _, nd := range c.nodes {
		if nd != victim {
			live = append(live, nd)
		}
	}
	for k, key := range keys {
		r := c.getKey(t, live[k%len(live)], key)
		if !r.Found || !bytes.Equal(r.Value, []byte(fmt.Sprintf("ack-%03d", k))) {
			t.Fatalf("acked write %d lost across graceful shutdown: %+v", k, r)
		}
	}
}

// TestOverloadAdmissionControl exercises both shed points with
// MaxInflight = 1: the origin gate (inflight budget full -> synchronous
// ErrOverloaded, no wire traffic) and the owner gate (execution slot
// held -> Shed reply mapped back to ErrOverloaded at the origin, not
// counted as a timeout). Both must recover as soon as load drains.
func TestOverloadAdmissionControl(t *testing.T) {
	c := newClusterCfg(t, 12, 0.02, 203, func(cfg *Config) { cfg.MaxInflight = 1 })
	origin := c.nodes[1]
	// A key at another node's position is owned there, so the origin's
	// op stays pending until the bus drains.
	owner := c.nodes[5]
	key := owner.Info().Pos

	var first *store.Reply
	if err := origin.Put(key, []byte("a"), func(r store.Reply) { first = &r }); err != nil {
		t.Fatal(err)
	}
	if first != nil {
		t.Fatalf("put resolved before drain; key %v not remote to %s", key, origin.Info().Addr)
	}
	// Budget full: refused synchronously, counted, nothing sent.
	if err := origin.Put(geom.Pt(0.5, 0.5), []byte("b"), nil); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("second put at budget: got %v, want ErrOverloaded", err)
	}
	if counter(origin, "store_shed_total") != 1 {
		t.Fatalf("origin store_shed_total = %d, want 1", counter(origin, "store_shed_total"))
	}
	c.bus.Drain()
	if first == nil || first.Err != nil || !first.Found {
		t.Fatalf("admitted put failed: %+v", first)
	}
	// Budget freed: admitted again.
	c.putKey(t, origin, key, []byte("c"))

	// Owner-side: hold the owner's only execution slot and route a put
	// at it from elsewhere; the shed reply must come back fast as
	// ErrOverloaded, not burn the origin's timeout.
	owner.storeBusy.Add(1)
	var shed *store.Reply
	if err := origin.Put(key, []byte("d"), func(r store.Reply) { shed = &r }); err != nil {
		t.Fatal(err)
	}
	c.bus.Drain()
	if shed == nil || !errors.Is(shed.Err, store.ErrOverloaded) {
		t.Fatalf("owner shed reply: %+v, want ErrOverloaded", shed)
	}
	if counter(owner, "store_shed_total") == 0 {
		t.Fatal("owner refusal not counted in store_shed_total")
	}
	if counter(origin, "store_timeouts_total") != 0 {
		t.Fatalf("owner shed miscounted as timeout at origin: %d", counter(origin, "store_timeouts_total"))
	}
	owner.storeBusy.Add(-1)
	c.putKey(t, origin, key, []byte("e"))
}

// TestMaxInflightIsExactUnderConcurrency: origin-side admission checks the
// budget and takes the slot in one step, so however many callers arrive
// at once, exactly MaxInflight are admitted and the rest are shed. The
// key is owned elsewhere and the bus is not drained, so every admitted op
// stays pending while the others knock; the drain then answers exactly
// the admitted ones.
func TestMaxInflightIsExactUnderConcurrency(t *testing.T) {
	const budget, callers, rounds = 2, 64, 40
	c := newClusterCfg(t, 12, 0.02, 203, func(cfg *Config) { cfg.MaxInflight = budget })
	origin := c.nodes[1]
	key := c.nodes[5].Info().Pos
	for round := 1; round <= rounds; round++ {
		var admitted, acked atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch err := origin.Put(key, []byte("v"), func(store.Reply) { acked.Add(1) }); {
				case err == nil:
					admitted.Add(1)
				case !errors.Is(err, store.ErrOverloaded):
					t.Errorf("put: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if a, p := admitted.Load(), acked.Load(); a != budget || p != 0 {
			t.Fatalf("round %d: %d of %d concurrent puts admitted, %d answered before the drain; the budget is %d", round, a, callers, p, budget)
		}
		if shed := counter(origin, "store_shed_total"); shed != uint64(round*(callers-budget)) {
			t.Fatalf("round %d: store_shed_total = %d, want %d", round, shed, round*(callers-budget))
		}
		c.bus.Drain()
		if p := acked.Load(); p != budget {
			t.Fatalf("round %d: the drain answered %d of %d admitted ops", round, p, budget)
		}
	}
}

// TestDigestSyncNoDiffRatio is the anti-entropy bytes regression
// assertion CI runs: once replicas agree, a digest sweep must cost at
// most 0.15x of the full-record push it replaces (the acceptance bound;
// with kilobyte values the measured ratio is far lower). It also
// requires the converged sweep to be silent — digests out, no pulls, no
// record streams.
func TestDigestSyncNoDiffRatio(t *testing.T) {
	c := newCluster(t, 20, 0.02, 204)
	rng := rand.New(rand.NewSource(9))
	// Kilobyte-scale values and a few records per target: the regime the
	// 10x claim is about. (Envelope framing overhead, not fingerprints,
	// floors the digest cost, so near-empty stores would measure framing,
	// not the protocol.)
	val := bytes.Repeat([]byte("x"), 2048)
	for k := 0; k < 150; k++ {
		c.putKey(t, c.nodes[k%len(c.nodes)], geom.Pt(rng.Float64(), rng.Float64()), val)
	}
	for _, nd := range c.nodes {
		nd.SyncReplicas()
	}
	c.bus.Drain()

	var dig, full int
	for _, nd := range c.nodes {
		d, f := nd.SyncReplicasProbe()
		dig += d
		full += f
	}
	if full == 0 {
		t.Fatal("probe saw no records")
	}
	if ratio := float64(dig) / float64(full); ratio > 0.15 {
		t.Fatalf("no-diff digest sweep %dB vs full push %dB: ratio %.3f > 0.15", dig, full, ratio)
	}

	// Converged: another sweep is digests-only. Any pull or record
	// stream here means fingerprints or placement disagree between
	// sender and receiver.
	pulls := func() (n uint64) {
		for _, nd := range c.nodes {
			n += counter(nd, "node_send_"+proto.KindSyncPull.String()+"_total") + counter(nd, "node_send_"+proto.KindReplicaSync.String()+"_total")
		}
		return n
	}
	before := pulls()
	for _, nd := range c.nodes {
		nd.SyncReplicas()
	}
	c.bus.Drain()
	if got := pulls(); got != before {
		t.Fatalf("converged sweep still transferred data: %d pull/stream sends", got-before)
	}
}

// TestDigestSyncRepairsWipedReplica wipes one node's store outright and
// requires a digest sweep to restore every record it held: replica
// refreshes repair what it replicated, handoff digests repair what it
// owned.
func TestDigestSyncRepairsWipedReplica(t *testing.T) {
	c := newCluster(t, 20, 0.02, 205)
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 50; k++ {
		c.putKey(t, c.nodes[k%len(c.nodes)], geom.Pt(rng.Float64(), rng.Float64()), []byte(fmt.Sprintf("v-%03d", k)))
	}
	victim := c.nodes[7]
	snap := victim.StoreSnapshot()
	if len(snap) == 0 {
		t.Fatal("victim holds no records; test needs a loaded victim")
	}
	victim.kv.Clear()

	for _, nd := range c.nodes {
		nd.SyncReplicas()
	}
	c.bus.Drain()

	for _, rec := range snap {
		got, ok := victim.StoreLookup(rec.Key)
		if !ok || got.Version < rec.Version {
			t.Fatalf("record %v not repaired by digest sweep: got %+v ok=%v", rec.Key, got, ok)
		}
	}
}

// counter reads the node's counter registered under name.
func counter(nd *Node, name string) uint64 {
	return nd.Metrics().Snapshot().Counters[name]
}
