package harness

// Scenarios returns the standard chaos battery. Every scenario is
// registered both as a go test case (TestScenarios) and behind
// `voronet-bench -chaos`; seeds are fixed so BENCH_chaos.json baselines
// and CI transcripts are reproducible, and CI additionally shifts the
// seeds (CHAOS_SEED) to keep the invariants honest across randomness.
//
// EXPERIMENTS.md tabulates the battery with expected outcomes.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// Sustained interleaved joins, graceful leaves and crashes
			// with workload throughout: the tessellation, link mesh and
			// replica placement must track every population change.
			Name: "churn-storm", Seed: 101,
			Steps: []Step{
				join{N: 30},
				storeWorkload{Ops: 60},
				settle{},
				check{},
				leave{Count: 5},
				crash{Count: 3},
				join{N: 10},
				settle{},
				storeWorkload{Ops: 60, GetFrac: 0.4},
				settle{},
				check{},
				leave{Count: 4},
				crash{Count: 2},
				join{N: 6},
				settle{},
				check{},
			},
		},
		{
			// Fifty nodes join within one network round against a 5-node
			// seed overlay: admission under heavy concurrent tessellation
			// surgery.
			Name: "flash-crowd", Seed: 102,
			Steps: []Step{
				join{N: 5},
				settle{},
				check{},
				join{N: 50, Batch: true},
				settle{},
				check{},
				storeWorkload{Ops: 50, GetFrac: 0.3},
				settle{},
				check{},
			},
		},
		{
			// The view-surgery stress: a batch flash crowd lands while the
			// overlay is simultaneously shrinking by leaves and crashes,
			// then a second crowd hits the shrunken mesh. Every Check runs
			// the full invariant battery, so any miscomputation in the
			// overlapping view recomputes (lost back refs, torn Voronoi
			// stars, replica holes) fails the scenario.
			Name: "flash-crowd-churn", Seed: 110,
			Steps: []Step{
				join{N: 10},
				settle{},
				check{},
				join{N: 30, Batch: true},
				leave{Count: 4},
				crash{Count: 3},
				settle{},
				check{},
				storeWorkload{Ops: 60, GetFrac: 0.4},
				join{N: 20, Batch: true},
				crash{Count: 4},
				settle{},
				storeWorkload{Ops: 40, GetFrac: 0.5},
				settle{},
				check{},
			},
		},
		{
			// The acceptance scenario: a named east/west partition stands
			// while the workload keeps writing, then heals. The final
			// check demands 100% greedy-routing success and full
			// replica-set coverage for every surviving key.
			Name: "partition-heal", Seed: 103,
			Steps: []Step{
				join{N: 30},
				storeWorkload{Ops: 60},
				settle{},
				check{},
				partition{Name: "east-west", At: 0.5},
				storeWorkload{Ops: 80, GetFrac: 0.3},
				check{SkipStore: true}, // views are fault-free; stores diverge until heal
				heal{},
				settle{},
				storeWorkload{Ops: 30, GetFrac: 0.5},
				settle{},
				check{},
			},
		},
		{
			// Zipf(1.2) over 12 keys: one region owner absorbs most of
			// the write traffic, then loses nodes around the hot spot.
			Name: "hot-keys", Seed: 104,
			Steps: []Step{
				join{N: 25},
				storeWorkload{Dist: "zipf", Ops: 120, GetFrac: 0.5, Keys: 12},
				settle{},
				check{},
				crash{Count: 3},
				settle{},
				storeWorkload{Dist: "zipf", Ops: 80, GetFrac: 0.5, Keys: 12},
				settle{},
				check{},
			},
		},
		{
			// 8% seeded message loss on every link while the store works:
			// operations may be lost but nothing may corrupt, and the
			// anti-entropy settle must restore full replication.
			Name: "lossy-links", Seed: 105,
			Steps: []Step{
				join{N: 25},
				storeWorkload{Ops: 40},
				settle{},
				check{},
				lossy{Rate: 0.08},
				storeWorkload{Ops: 80, GetFrac: 0.5},
				clearFaults{},
				settle{},
				check{},
			},
		},
		{
			// One node's links run 50–120 virtual ticks slow, reordering
			// its traffic against the whole network, while new nodes keep
			// joining through the reordered gossip.
			Name: "straggler", Seed: 106,
			Steps: []Step{
				join{N: 25},
				straggler{Node: 3, MinLat: 50, MaxLat: 120},
				storeWorkload{Ops: 60, GetFrac: 0.3},
				join{N: 10},
				settle{},
				check{},
				clearFaults{},
				settle{},
				check{},
			},
		},
		{
			// A fifth of the overlay crashes at once with no leave
			// protocol: survivors must close every hole, re-route orphaned
			// long links and restore the replication factor.
			Name: "blackout", Seed: 107,
			Steps: []Step{
				join{N: 30},
				storeWorkload{Ops: 60},
				settle{},
				check{},
				crash{Count: 6},
				settle{},
				storeWorkload{Ops: 40, GetFrac: 0.5},
				settle{},
				check{},
			},
		},
		{
			// Durable nodes with 2 KiB payloads: a quarter of the overlay
			// crashes abruptly, then every victim restarts from its
			// write-ahead log at its old address and rejoins — no acked
			// write may be lost, the final check must be fully green, and
			// a converged no-diff anti-entropy sweep must cost at most
			// 0.15× of the full-record push (the digest acceptance bound).
			Name: "crash-restart", Seed: 109, Durable: true,
			Steps: []Step{
				join{N: 24},
				storeWorkload{Ops: 150, GetFrac: 0.2, ValueBytes: 2048},
				settle{},
				check{},
				crash{Count: 6},
				settle{},
				restart{},
				settle{},
				check{},
				syncBytes{MaxRatio: 0.15},
				storeWorkload{Ops: 60, GetFrac: 0.5, ValueBytes: 2048},
				settle{},
				check{},
			},
		},
		{
			// Grow, shrink by graceful leaves, regrow: placement and
			// routing must be exact at every plateau.
			Name: "elastic", Seed: 108,
			Steps: []Step{
				join{N: 20},
				settle{},
				check{},
				join{N: 20},
				storeWorkload{Ops: 40},
				settle{},
				check{},
				leave{Count: 15},
				settle{},
				check{},
				join{N: 10},
				storeWorkload{Ops: 40, GetFrac: 0.5},
				settle{},
				check{},
			},
		},
	}
}

// ByName returns the named scenario, or nil.
func ByName(name string) *Scenario {
	for _, s := range Scenarios() {
		if s.Name == name {
			return &s
		}
	}
	return nil
}
