package harness

import (
	"bytes"
	"fmt"

	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/store"
	"voronet/internal/transport"
	"voronet/internal/workload"
)

// join adds N nodes to the overlay, each joining through a random live
// sponsor. With Batch set, all N join requests are issued before the bus
// drains once — a flash crowd arriving within one network round instead
// of a sequential trickle.
type join struct {
	N     int
	Batch bool
}

func (s join) run(r *Run) error {
	mode := "sequential"
	if s.Batch {
		mode = "batch"
	}
	sponsors := r.live()
	var joined []*member
	for i := 0; i < s.N; i++ {
		m, err := r.addNode()
		if err != nil {
			return err
		}
		if len(r.members) == 1 {
			if err := m.nd.Bootstrap(); err != nil {
				return err
			}
			r.tr.logf("bootstrap %s pos=(%.6f,%.6f)", m.addr, infoOf(m).Pos.X, infoOf(m).Pos.Y)
			sponsors = append(sponsors, m)
			continue
		}
		pool := sponsors
		if !s.Batch {
			pool = r.live()[:len(r.live())-1] // everyone joined so far
		}
		via := pool[r.rng.Intn(len(pool))].addr
		if err := m.nd.Join(via); err != nil {
			return err
		}
		r.tr.logf("join %s pos=(%.6f,%.6f) via=%s", m.addr, infoOf(m).Pos.X, infoOf(m).Pos.Y, via)
		joined = append(joined, m)
		if !s.Batch {
			r.bus.Drain()
			if !m.nd.Joined() {
				r.fail("join: %s failed to join via %s", m.addr, via)
				m.alive = false
			}
		}
	}
	if s.Batch {
		r.bus.Drain()
		for _, m := range joined {
			if !m.nd.Joined() {
				r.fail("join: %s failed to join (batch)", m.addr)
				m.alive = false
			}
		}
	}
	// Newcomers must not bridge an installed partition: re-assign the
	// groups over the grown membership.
	for _, p := range r.activeParts {
		west, east := r.installPartition(p)
		r.tr.logf("partition %s refreshed west=%d east=%d", p.Name, west, east)
	}
	r.tr.logf("joined n=%d mode=%s live=%d %s", s.N, mode, len(r.live()), r.busLine())
	return nil
}

// leave makes Count random live nodes depart gracefully (store handoff,
// BLRn delegation, neighbourhood repair — the §4.2.2 protocol).
type leave struct{ Count int }

func (s leave) run(r *Run) error {
	for i := 0; i < s.Count; i++ {
		live := r.live()
		if len(live) <= 1 {
			break
		}
		m := live[r.rng.Intn(len(live))]
		if err := m.nd.Leave(); err != nil {
			return err
		}
		r.bus.Drain()
		m.ep.Close()
		m.alive = false
		r.tr.logf("leave %s live=%d %s", m.addr, len(r.live()), r.busLine())
	}
	return nil
}

// crash kills Count random live nodes abruptly: endpoints close with no
// leave protocol, records and links die with them, and the surviving
// population receives failure-detector notifications (NotifyDeparted) and
// repairs itself. Tracked keys whose every live copy was on a crashed
// node are recorded as lost and untracked — losing more than the
// replication factor simultaneously is data loss by design, not a bug.
type crash struct{ Count int }

func (s crash) run(r *Run) error {
	live := r.live()
	count := s.Count
	if count > len(live)-1 {
		count = len(live) - 1
	}
	if count <= 0 {
		return nil
	}
	perm := r.rng.Perm(len(live))
	victims := make([]*member, count)
	victimSet := make(map[string]bool, count)
	for i := 0; i < count; i++ {
		victims[i] = live[perm[i]]
		victimSet[victims[i].addr] = true
	}
	// Data-loss accounting, judged against the pre-crash replica set: a
	// key whose owner and every required replica die together is lost by
	// design (more simultaneous failures than the replication factor).
	// If no copy at all survives the key is untracked; if only stale
	// copies outside the replica set survive, the key stays tracked but
	// its value becomes indeterminate — anti-entropy may resurrect an
	// older version, which is recovery, not corruption.
	//
	// In a Durable scenario none of that applies: every acked write was
	// logged before its ack, the victims' WALs survive the crash, and a
	// later Restart recovers the records byte-exact — so every tracked
	// key stays tracked at full confidence.
	if !r.scn.Durable {
		ref, err := r.buildReference()
		if err != nil {
			return err
		}
		for _, k := range r.sortedExpectedKeys() {
			var surviving []string
			for _, h := range r.holdersOf(k) {
				if !victimSet[h] {
					surviving = append(surviving, h)
				}
			}
			if len(surviving) == 0 {
				delete(r.expected, k)
				r.tr.logf("crash loses key=(%.6f,%.6f): every copy on a victim", k.X, k.Y)
				continue
			}
			owner := ref.ownerOf(k)
			requiredDead := victimSet[owner.addr]
			if requiredDead {
				for _, m := range ref.replicaSet(owner, k, scenarioReplication) {
					if !victimSet[m.addr] {
						requiredDead = false
						break
					}
				}
			}
			if requiredDead {
				r.expected[k].sure = false
				r.tr.logf("crash orphans key=(%.6f,%.6f): replica set dead, %d stale copies survive", k.X, k.Y, len(surviving))
			}
		}
	}
	for _, v := range victims {
		v.ep.Close()
		v.alive = false
		v.crashed = true
		r.tr.logf("crash %s", v.addr)
	}
	for _, m := range r.live() {
		for _, v := range victims {
			m.nd.NotifyDeparted(v.addr)
		}
	}
	r.bus.Drain()
	r.tr.logf("crashed n=%d live=%d %s", count, len(r.live()), r.busLine())
	return nil
}

// partition splits the live population into two named groups by attribute
// coordinate — members with Pos.X (or Pos.Y when Axis is "y") below At go
// west, the rest east — and installs the partition on the bus. Messages
// crossing the cut are dropped until Heal.
type partition struct {
	Name string
	Axis string // "x" (default) or "y"
	At   float64
}

func (s partition) run(r *Run) error {
	for i, p := range r.activeParts {
		if p.Name == s.Name {
			r.activeParts = append(r.activeParts[:i], r.activeParts[i+1:]...)
			break
		}
	}
	r.activeParts = append(r.activeParts, s)
	west, east := r.installPartition(s)
	r.partitioned = true
	r.lossy = true
	r.tr.logf("partition %s axis=%s at=%.3f west=%d east=%d", s.Name, axisName(s.Axis), s.At, west, east)
	return nil
}

// installPartition (re)installs one partition over the current live
// membership and returns the group sizes. Called again after every join
// while the partition stands, so newcomers are constrained by coordinate
// instead of silently bridging the cut.
func (r *Run) installPartition(s partition) (west, east int) {
	var w, e []string
	for _, m := range r.live() {
		c := infoOf(m).Pos.X
		if s.Axis == "y" {
			c = infoOf(m).Pos.Y
		}
		if c < s.At {
			w = append(w, m.addr)
		} else {
			e = append(e, m.addr)
		}
	}
	r.bus.InstallPartition(s.Name, w, e)
	return len(w), len(e)
}

func axisName(a string) string {
	if a == "y" {
		return "y"
	}
	return "x"
}

// heal removes every installed partition. Replica sets damaged while the
// partition stood are restored by the next Settle's anti-entropy sweep.
type heal struct{}

func (s heal) run(r *Run) error {
	r.bus.Heal()
	r.activeParts = nil
	r.partitioned = false
	r.tr.logf("heal %s", r.busLine())
	return nil
}

// lossy installs a default link rule dropping the given fraction of every
// message (seeded, deterministic). Rate 0 restores perfect links.
type lossy struct{ Rate float64 }

func (s lossy) run(r *Run) error {
	r.bus.SetDefaultRule(transport.LinkRule{Drop: s.Rate})
	r.dropFaults = s.Rate > 0
	if s.Rate > 0 {
		r.lossy = true
	}
	r.tr.logf("lossy rate=%.3f", s.Rate)
	return nil
}

// straggler gives every link into and out of one node (by join index) a
// latency in [MinLat, MaxLat] virtual ticks, reordering its traffic
// against the rest of the network.
type straggler struct {
	Node           int
	MinLat, MaxLat uint64
}

func (s straggler) run(r *Run) error {
	if s.Node < 0 || s.Node >= len(r.members) {
		return fmt.Errorf("straggler: no member %d", s.Node)
	}
	m := r.members[s.Node]
	r.bus.SetPeerRule(m.addr, transport.LinkRule{MinLatency: s.MinLat, MaxLatency: s.MaxLat})
	r.tr.logf("straggler %s lat=[%d,%d]", m.addr, s.MinLat, s.MaxLat)
	return nil
}

// clearFaults removes every link, peer and default rule (partitions heal
// separately).
type clearFaults struct{}

func (s clearFaults) run(r *Run) error {
	r.bus.ClearRules()
	r.dropFaults = false
	r.tr.logf("clearfaults")
	return nil
}

// storeWorkload issues Ops routed store operations from random live nodes:
// puts with fresh values, and gets with probability GetFrac. Keys come
// from the named distribution — "uniform" draws fresh uniform keys for
// puts and revisits tracked keys for gets; "zipf" draws from a fixed
// hot-key set with Zipf(Alpha) popularity (both puts and gets hammer the
// head keys). Operations whose reply never arrives (lost to a fault) are
// recorded as lost; a lost put makes the key's value indeterminate until
// the next acknowledged put.
type storeWorkload struct {
	Dist    string // "uniform" (default) or "zipf"
	Ops     int
	GetFrac float64
	Alpha   float64 // zipf skew (default 1.2)
	Keys    int     // zipf key-set size (default 16)
	// ValueBytes pads every put value to this size (0 keeps the bare
	// 7-byte sequence tag). Realistic payloads matter to the SyncBytes
	// measurement: with tiny values the wire cost of a full push is all
	// envelope framing and the digest ratio is meaningless.
	ValueBytes int
}

func (s storeWorkload) run(r *Run) error {
	live := r.live()
	if len(live) == 0 {
		return fmt.Errorf("workload: no live nodes")
	}
	var keysrc workload.Source
	switch s.Dist {
	case "", "uniform":
		keysrc = &workload.Uniform{Rand: r.rng}
	case "zipf":
		if r.zipf == nil {
			alpha := s.Alpha
			if alpha <= 0 {
				alpha = 1.2
			}
			k := s.Keys
			if k <= 0 {
				k = 16
			}
			r.zipf = workload.NewZipfKeys(alpha, k, r.rng)
		}
		keysrc = r.zipf
	default:
		return fmt.Errorf("workload: unknown distribution %q", s.Dist)
	}
	acked, lost := 0, 0
	for i := 0; i < s.Ops; i++ {
		live = r.live()
		m := live[r.rng.Intn(len(live))]
		isGet := r.rng.Float64() < s.GetFrac
		if isGet {
			key, ok := r.getKey(keysrc)
			if !ok {
				isGet = false // nothing to read yet: fall through to a put
			} else {
				if r.doGet(m, key) {
					acked++
				} else {
					lost++
				}
				continue
			}
		}
		if !isGet {
			key := keysrc.Next()
			if r.doPut(m, key, s.ValueBytes) {
				acked++
			} else {
				lost++
			}
		}
	}
	r.res.Ops += s.Ops
	r.res.OpsLost += lost
	r.tr.logf("workload dist=%s ops=%d acked=%d lost=%d tracked=%d %s",
		keysrc.Name(), s.Ops, acked, lost, len(r.expected), r.busLine())
	return nil
}

// getKey picks a key to read: zipf reads redraw from the hot-key set,
// uniform reads revisit a random tracked key.
func (r *Run) getKey(src workload.Source) (geom.Point, bool) {
	if z, ok := src.(*workload.ZipfKeys); ok {
		return z.Next(), true
	}
	keys := r.sortedExpectedKeys()
	if len(keys) == 0 {
		return geom.Point{}, false
	}
	return keys[r.rng.Intn(len(keys))], true
}

// doPut issues one routed put and drains; it reports whether the ack
// arrived. valueBytes > 0 pads the value to that size (the sequence tag
// keeps every put distinguishable).
func (r *Run) doPut(m *member, key geom.Point, valueBytes int) bool {
	r.opSeq++
	val := []byte(fmt.Sprintf("v%06d", r.opSeq))
	if valueBytes > len(val) {
		val = append(val, bytes.Repeat([]byte{'.'}, valueBytes-len(val))...)
	}
	var rep store.Reply
	done := false
	if err := m.nd.Put(key, val, func(rp store.Reply) { rep = rp; done = true }); err != nil {
		r.res.OpsFailed++
		r.fail("put from %s refused: %v", m.addr, err)
		return false
	}
	r.bus.Drain()
	if !done {
		if exp, ok := r.expected[key]; ok {
			exp.sure = false // the lost put may or may not have applied
		}
		r.tr.logf("op %06d put %s key=(%.6f,%.6f) lost", r.opSeq, m.addr, key.X, key.Y)
		return false
	}
	r.expected[key] = &expectation{val: val, sure: true}
	r.tr.logf("op %06d put %s key=(%.6f,%.6f) ok v=%d hops=%d", r.opSeq, m.addr, key.X, key.Y, rep.Version, rep.Hops)
	return true
}

// doGet issues one routed get and drains; it reports whether the answer
// arrived. When the harness knows the key's value for certain and no loss
// fault is active, the answer must match.
func (r *Run) doGet(m *member, key geom.Point) bool {
	r.opSeq++
	var rep store.Reply
	done := false
	if err := m.nd.Get(key, func(rp store.Reply) { rep = rp; done = true }); err != nil {
		r.res.OpsFailed++
		r.fail("get from %s refused: %v", m.addr, err)
		return false
	}
	r.bus.Drain()
	if !done {
		r.tr.logf("op %06d get %s key=(%.6f,%.6f) lost", r.opSeq, m.addr, key.X, key.Y)
		return false
	}
	state := "miss"
	if rep.Found {
		state = "hit"
	}
	if exp, ok := r.expected[key]; ok && exp.sure {
		if !rep.Found || !bytes.Equal(rep.Value, exp.val) {
			if r.lossy {
				// Only the owner answers a GET, but an owner that took
				// the key over under message loss may hold an older copy,
				// or none, until the next anti-entropy sweep: eventual,
				// not immediate, consistency under faults.
				state = "stale"
			} else {
				r.fail("get %s key=(%.6f,%.6f): got found=%v %q, want %q",
					m.addr, key.X, key.Y, rep.Found, rep.Value, exp.val)
			}
		}
	}
	r.tr.logf("op %06d get %s key=(%.6f,%.6f) %s hops=%d", r.opSeq, m.addr, key.X, key.Y, state, rep.Hops)
	return true
}

// settle quiesces the network: each round drains the bus, runs one
// anti-entropy sweep (every live node pushes the records it owns to their
// replica sets) and drains again. Two rounds reach a fixpoint after any
// single fault epoch: the first restores ownership placement, the second
// re-replicates from the restored owners. Once no drop faults remain
// active, the run leaves the lossy regime: reads are strongly checked
// again.
type settle struct{ Rounds int }

func (s settle) run(r *Run) error {
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		r.bus.Drain()
		pushed := 0
		for _, m := range r.live() {
			pushed += m.nd.SyncReplicas()
		}
		r.bus.Drain()
		r.tr.logf("settle round=%d pushed=%d %s", i+1, pushed, r.busLine())
	}
	if !r.dropFaults && !r.partitioned {
		r.lossy = false
	}
	return nil
}

// check runs the network-wide invariant checker: global Delaunay validity
// of the union of local views, long-link back-pointer symmetry, replica
// placement and value convergence of every tracked key, and
// greedy-routing reachability over sampled pairs. Zero-valued fields mean
// strict: MinRouteSuccess 0 is read as 1.0 and all aspects are checked
// unless skipped explicitly.
type check struct {
	Samples         int     // routing pairs to sample (default 40)
	MinRouteSuccess float64 // required success fraction (default 1.0)
	SkipViews       bool
	SkipBacklinks   bool
	SkipStore       bool
}

func (s check) run(r *Run) error {
	rep := r.runCheck(s)
	r.res.Checks = append(r.res.Checks, rep)
	r.tr.logf("check nodes=%d views=%d backlinks=%d store=%d/%d route=%d/%d %s %s",
		rep.Nodes, rep.ViewErrors, rep.BacklinkErrors,
		rep.StoreErrors, rep.StoreKeys, rep.RouteOK, rep.RouteTried,
		hopsSummary(rep.hops), r.busLine())
	min := s.MinRouteSuccess
	if min <= 0 {
		min = 1.0
	}
	if !s.SkipViews && rep.ViewErrors > 0 {
		r.fail("check: %d nodes disagree with the reference tessellation (first: %s)", rep.ViewErrors, rep.firstDetail("view"))
	}
	if !s.SkipBacklinks && rep.BacklinkErrors > 0 {
		r.fail("check: %d long-link/back-pointer violations (first: %s)", rep.BacklinkErrors, rep.firstDetail("backlink"))
	}
	if !s.SkipStore && rep.StoreErrors > 0 {
		r.fail("check: %d/%d tracked keys misplaced or diverged (first: %s)", rep.StoreErrors, rep.StoreKeys, rep.firstDetail("store"))
	}
	if rep.RouteTried > 0 && float64(rep.RouteOK)/float64(rep.RouteTried) < min {
		r.fail("check: routing success %d/%d below %.3f", rep.RouteOK, rep.RouteTried, min)
	}
	return nil
}

// restart revives crashed members of a Durable scenario at their old
// addresses: each victim reattaches to the bus, replays its write-ahead
// log into a fresh store (the recovered record count is asserted and
// logged — paths never are), and rejoins through a random live sponsor.
// The persisted incarnation counter bumped by the WAL open is what lets
// the survivors, who tombstoned the old incarnation, admit the new one.
// Count 0 restarts every crashed member, in join order.
type restart struct{ Count int }

func (s restart) run(r *Run) error {
	if !r.scn.Durable {
		return fmt.Errorf("restart: scenario is not durable")
	}
	var victims []*member
	for _, m := range r.members {
		if !m.alive && m.crashed {
			victims = append(victims, m)
		}
	}
	if s.Count > 0 && s.Count < len(victims) {
		victims = victims[:s.Count]
	}
	if len(victims) == 0 {
		return fmt.Errorf("restart: no crashed members to revive")
	}
	for _, m := range victims {
		ep, err := r.bus.Attach(m.addr)
		if err != nil {
			return fmt.Errorf("restart %s: %w", m.addr, err)
		}
		pos := m.nd.Info().Pos
		held := len(m.nd.StoreSnapshot())
		nd, stats, err := node.NewDurable(ep, pos, r.nodeConfig(m.idx, m.addr))
		if err != nil {
			return fmt.Errorf("restart %s: %w", m.addr, err)
		}
		if stats.Records < held {
			r.fail("restart %s: replayed %d records, held %d at crash", m.addr, stats.Records, held)
		}
		live := r.live()
		via := live[r.rng.Intn(len(live))].addr
		if err := nd.Join(via); err != nil {
			return fmt.Errorf("restart %s join: %w", m.addr, err)
		}
		r.bus.Drain()
		if !nd.Joined() {
			r.fail("restart: %s failed to rejoin via %s", m.addr, via)
			// The failed instance still sent join traffic the bus counted.
			r.retired = append(r.retired, nd.Metrics())
			ep.Close()
			continue
		}
		// The dead instance's registry already reconciled traffic with the
		// bus; keep its books when the slot is taken over.
		r.retired = append(r.retired, m.nd.Metrics())
		m.nd, m.ep, m.alive, m.crashed = nd, ep, true, false
		r.tr.logf("restart %s recovered=%d torn=%v corrupt=%d gen=%d via=%s",
			m.addr, stats.Records, stats.Truncated, stats.CorruptFrames, stats.Generation, via)
	}
	r.bus.Drain()
	r.tr.logf("restarted n=%d live=%d %s", len(victims), len(r.live()), r.busLine())
	return nil
}

// syncBytes probes every live node's anti-entropy cost in both modes
// (digest opener vs full-record push — node.SyncReplicasProbe encodes
// the envelopes without sending) and fails the run when digest/full
// exceeds MaxRatio. Run it on a converged store: the digest bytes then
// are the entire recurring cost of a no-diff sweep.
type syncBytes struct{ MaxRatio float64 }

func (s syncBytes) run(r *Run) error {
	var digest, full int
	for _, m := range r.live() {
		d, f := m.nd.SyncReplicasProbe()
		digest += d
		full += f
	}
	r.res.SyncDigestBytes += uint64(digest)
	r.res.SyncFullBytes += uint64(full)
	ratio := 0.0
	if full > 0 {
		ratio = float64(digest) / float64(full)
	}
	r.tr.logf("syncbytes digest=%d full=%d ratio=%.4f", digest, full, ratio)
	if full == 0 {
		r.fail("syncbytes: no records to probe (vacuous measurement)")
		return nil
	}
	if s.MaxRatio > 0 && ratio > s.MaxRatio {
		r.fail("syncbytes: digest/full = %d/%d = %.4f exceeds %.4f", digest, full, ratio, s.MaxRatio)
	}
	return nil
}

// ensure all step types satisfy Step.
var (
	_ Step = join{}
	_ Step = leave{}
	_ Step = crash{}
	_ Step = partition{}
	_ Step = heal{}
	_ Step = lossy{}
	_ Step = straggler{}
	_ Step = clearFaults{}
	_ Step = storeWorkload{}
	_ Step = settle{}
	_ Step = check{}
	_ Step = restart{}
	_ Step = syncBytes{}
)
