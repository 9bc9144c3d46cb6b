package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"voronet/internal/geom"
)

// handOverScenario is one starting overlay of TestHandOverDigest.
type handOverScenario struct {
	name string
	cfg  Config
	// seedPoints returns the objects inserted before the churn starts.
	seedPoints func(rng *rand.Rand) []geom.Point
	// minExterior is the least share of long-link targets that must lie
	// outside the unit square once the seed objects are in, so that the
	// scenario keeps exercising what its name promises.
	minExterior float64
}

func uniformPoints(n int) func(*rand.Rand) []geom.Point {
	return func(rng *rand.Rand) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		return pts
	}
}

var handOverScenarios = []handOverScenario{
	{name: "uniform", cfg: Config{NMax: 2000}, seedPoints: uniformPoints(500)},
	// dmin ≈ 0.028: a third of the log-uniform radii exceed 0.5 and most
	// of those leave the square.
	{name: "exterior", cfg: Config{NMax: 400}, seedPoints: uniformPoints(500), minExterior: 0.3},
	// 64 objects on a circle are all hull vertices and ring neighbours of
	// every fictive object inserted outside it.
	{name: "ring", cfg: Config{NMax: 2000, LongLinks: 2}, seedPoints: func(rng *rand.Rand) []geom.Point {
		pts := make([]geom.Point, 0, 464)
		for i := 0; i < 64; i++ {
			a := 2 * math.Pi * float64(i) / 64
			pts = append(pts, geom.Pt(0.5+0.45*math.Cos(a), 0.5+0.45*math.Sin(a)))
		}
		for len(pts) < cap(pts) {
			r, a := 0.4*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
			pts = append(pts, geom.Pt(0.5+r*math.Cos(a), 0.5+r*math.Sin(a)))
		}
		return pts
	}},
}

// build returns the scenario's starting overlay for one seed, the IDs of
// its objects and the position stream, advanced past the seed points.
func (sc handOverScenario) build(t *testing.T, seed int64) (*Overlay, []ObjectID, *rand.Rand) {
	t.Helper()
	cfg := sc.cfg
	cfg.Seed = seed + 1000 // distinct from the position stream's
	o := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	var live []ObjectID
	for _, p := range sc.seedPoints(rng) {
		id, err := o.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	if sc.minExterior > 0 {
		exterior, total := 0, 0
		for _, id := range live {
			tgts, _ := o.LongTargets(id)
			for _, tgt := range tgts {
				total++
				if !tgt.InUnitSquare() {
					exterior++
				}
			}
		}
		if frac := float64(exterior) / float64(total); frac < sc.minExterior {
			t.Fatalf("%s: %.2f of targets are exterior, want >= %.2f", sc.name, frac, sc.minExterior)
		}
	}
	return o, live, rng
}

// handOverState pins the BLRn hand-over move for move: which object holds
// which entry and which object every long link names, after the run below.
// The nine constants were printed by this very file at commit 67bffd4 (the
// parent of the change that deleted the dynamic-NMax re-draw, which used to
// be one step of the run); a change to a move or a tie-break changes one.
// Scenario-major, seeds 1-3.
var handOverState = map[string][3]uint64{
	"uniform":  {0x751137098974a8f0, 0x094bc807e25e73a8, 0x308b766653d69617},
	"exterior": {0xd0078e2226984d2e, 0xf31fcc1e9d3ab99c, 0x9182a5115d3e8728},
	"ring":     {0x07cf20749b6d3a7e, 0xabd648fd61408c5d, 0xdaf396bd230d78bc},
}

// handOverTraffic pins Counters.MaintenanceMessages for the same runs: what
// the moves are charged, which only a change to the cost model may touch.
// Printed at the same commit as handOverState.
var handOverTraffic = map[string][3]uint64{
	"uniform":  {20379, 20547, 19914},
	"exterior": {23072, 23166, 22706},
	"ring":     {28371, 28371, 28799},
}

// TestHandOverDigest runs 1 500 alternating Join/Remove steps over each
// scenario and checks two things apart. The
// state digest folds every protocol counter but MaintenanceMessages, every
// object's LRn and every object's BLRn (as a sorted set) into one FNV-1a
// value: same links, same holders, same routes. The traffic value is
// MaintenanceMessages alone: how many messages that took. The test is
// written against exported accessors only, so the same file compiles
// before and after a change to the entry layout.
func TestHandOverDigest(t *testing.T) {
	for _, sc := range handOverScenarios {
		for seed := int64(1); seed <= 3; seed++ {
			state, traffic := handOverDigest(t, sc, seed)
			if want := handOverState[sc.name][seed-1]; state != want {
				t.Errorf("%s seed %d: state digest %#016x, pinned %#016x", sc.name, seed, state, want)
			}
			if want := handOverTraffic[sc.name][seed-1]; traffic != want {
				t.Errorf("%s seed %d: %d maintenance messages, pinned %d", sc.name, seed, traffic, want)
			}
		}
	}
}

// handOverDigest returns the state digest and the maintenance-message
// count of one scenario × seed.
func handOverDigest(t *testing.T, sc handOverScenario, seed int64) (state, traffic uint64) {
	t.Helper()
	o, live, rng := sc.build(t, seed)

	const steps = 1500
	for step := 0; step < steps; step++ {
		if step%2 == 0 {
			via := live[rng.Intn(len(live))]
			id, err := o.Join(geom.Pt(rng.Float64(), rng.Float64()), via)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			continue
		}
		i := rng.Intn(len(live))
		if err := o.Remove(live[i]); err != nil {
			t.Fatal(err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatalf("%s seed %d: %v", sc.name, seed, err)
	}

	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	c := o.Counters()
	for _, v := range []uint64{c.GreedySteps, c.JoinRouteSteps,
		c.FictiveInserts, c.Joins, c.Leaves, c.Queries} {
		put(v)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	if o.Len() != len(live) {
		t.Fatalf("%s seed %d: %d objects live, tracked %d", sc.name, seed, o.Len(), len(live))
	}
	for _, id := range live {
		put(uint64(id))
		ln, err := o.LongNeighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ln {
			put(uint64(n))
		}
		back := sortedBackRefs(o, id)
		put(uint64(len(back)))
		for _, ref := range back {
			put(uint64(ref.Obj))
			put(uint64(ref.Link))
		}
	}
	return h.Sum64(), c.MaintenanceMessages
}

// sortedBackRefs returns BLRn(id) as a sorted set: list order depends on
// the history of swap-deletes, membership does not.
func sortedBackRefs(o *Overlay, id ObjectID) []backRef {
	back, _ := o.backLongRange(id)
	// Sort a copy: the file must also run at 5914c5d, where the digests
	// were taken and the accessor still returned the live list.
	back = append([]backRef(nil), back...)
	sort.Slice(back, func(i, j int) bool {
		if back[i].Obj != back[j].Obj {
			return back[i].Obj < back[j].Obj
		}
		return back[i].Link < back[j].Link
	})
	return back
}

// accessorSink keeps the reader's loads in TestAccessorsAreSnapshots alive.
var accessorSink uint64

// TestAccessorsAreSnapshots is the regression test for LongNeighbors,
// LongTargets and backLongRange handing out live internal slices: a writer
// joins and removes objects on the hull next to a watched object whose own
// long-link target is exterior (so the link is re-homed by every such
// join), while a reader ranges over the three slices it was handed after
// the accessor released its lock.
// Under -race this fails if any of the three aliases overlay state.
func TestAccessorsAreSnapshots(t *testing.T) {
	o := New(Config{NMax: 400, Seed: 1001})
	rng := rand.New(rand.NewSource(1))
	var ids []ObjectID
	for _, p := range uniformPoints(300)(rng) {
		id, err := o.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The watched object: an exterior target of its own, and the longest
	// BLRn list among such objects (a hull-side holder).
	watched, longest := NoObject, -1
	for _, id := range ids {
		tgts, _ := o.LongTargets(id)
		back, _ := o.backLongRange(id)
		if !tgts[0].InUnitSquare() && len(back) > longest {
			watched, longest = id, len(back)
		}
	}
	if watched == NoObject || longest < 2 {
		t.Fatalf("no hull-side object with an exterior target (longest BLRn %d)", longest)
	}
	wpos, _ := o.Position(watched)
	wtgts, _ := o.LongTargets(watched)
	// Where the writer joins: next to the point of the square closest to
	// the watched link's target (takes that link over), and next to the
	// watched object and its entries' targets (takes over part of its BLRn).
	sites := []geom.Point{wtgts[0].ClampUnitSquare(), wpos}
	back, _ := o.backLongRange(watched)
	for _, ref := range back {
		tg, _ := o.LongTargets(ref.Obj)
		sites = append(sites, tg[ref.Link].ClampUnitSquare())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ln, err := o.LongNeighbors(watched)
			if err != nil {
				t.Error(err)
				return
			}
			lt, _ := o.LongTargets(watched)
			bl, _ := o.backLongRange(watched)
			// Range over what was returned, long after the lock is gone.
			var sum uint64
			for pass := 0; pass < 200; pass++ {
				for _, n := range ln {
					sum += uint64(n)
				}
				for _, p := range lt {
					sum += math.Float64bits(p.X)
				}
				for _, ref := range bl {
					sum += uint64(ref.Obj) + uint64(ref.Link)
				}
			}
			accessorSink += sum
		}
	}()

	rehomed, resized := 0, 0
	lastHolder, lastLen := NoObject, -1
	observe := func() {
		ln, _ := o.LongNeighbors(watched)
		bl, _ := o.backLongRange(watched)
		if lastLen >= 0 {
			if ln[0] != lastHolder {
				rehomed++
			}
			if len(bl) != lastLen {
				resized++
			}
		}
		lastHolder, lastLen = ln[0], len(bl)
	}
	observe()
	for step := 0; step < 400; step++ {
		s := sites[step%len(sites)]
		jit := func() float64 { return (rng.Float64() - 0.5) * 0.02 }
		p := geom.Pt(s.X+jit(), s.Y+jit()).ClampUnitSquare()
		id, err := o.Join(p, ids[rng.Intn(len(ids))])
		if err != nil {
			continue // a duplicate position on the border
		}
		observe()
		if err := o.Remove(id); err != nil {
			t.Fatal(err)
		}
		observe()
	}
	close(done)
	wg.Wait()
	if rehomed == 0 || resized == 0 {
		t.Fatalf("watched object saw %d re-homings and %d BLRn size changes; the run exercised nothing", rehomed, resized)
	}
	if err := o.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}
