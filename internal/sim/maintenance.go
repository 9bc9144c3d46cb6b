package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"voronet/internal/core"
	"voronet/internal/workload"
)

// MaintenancePoint is one row of the overlay-management cost table: the
// paper's §4.2/§4.4 analysis predicts that per-operation maintenance
// traffic (AddVoronoiRegion / RemoveVoronoiRegion messages) is O(1) in the
// overlay size while the routed part of a join grows like O(log² N).
type MaintenancePoint struct {
	N int
	// JoinRouteSteps is the mean number of Greedyneighbour calls per join
	// (routing to the insertion region plus the long-link searches).
	JoinRouteSteps float64
	// JoinMaintenance is the mean number of neighbourhood-update messages
	// per join: the joiner's Voronoi neighbours plus the ring of each
	// fictive object it removed. Fictive objects hold no BLRn entry, so no
	// entry-transfer message is in it; what grows with N is the ring of a
	// probe that became a hull vertex.
	JoinMaintenance float64
	// LeaveMaintenance is the mean number of messages per leave: the
	// leaver's ring and close neighbours, one per long link withdrawn and
	// two per BLRn entry it re-delegates.
	LeaveMaintenance float64
	// FictivePerJoin is the mean number of fictive-object insertions
	// charged per join (Algorithms 1 and 2 use up to 1 + 2·k of them).
	FictivePerJoin float64
}

// MaintenanceExperiment measures protocol management costs across overlay
// sizes.
type MaintenanceExperiment struct {
	// Sizes are the overlay sizes to probe.
	Sizes []int
	// Ops is the number of joins (and separately leaves) measured per size.
	Ops int
	// Distribution names the workload.
	Distribution string
	// LongLinks per object (k).
	LongLinks int
	// InteriorTargets keeps long-link targets inside the unit square,
	// preventing the exterior-target pile-up on hull objects (see
	// core.Config.InteriorTargets and EXPERIMENTS.md).
	InteriorTargets bool
	Seed            int64
}

// Run executes the experiment.
func (e MaintenanceExperiment) Run() ([]MaintenancePoint, error) {
	if e.Ops <= 0 {
		e.Ops = 200
	}
	rng := rand.New(rand.NewSource(e.Seed))
	src := workload.ByName(e.Distribution, rng)
	if src == nil {
		return nil, fmt.Errorf("sim: unknown distribution %q", e.Distribution)
	}
	var out []MaintenancePoint
	for _, n := range e.Sizes {
		ov := core.New(core.Config{
			NMax: n, LongLinks: e.LongLinks, InteriorTargets: e.InteriorTargets, Seed: e.Seed + 1,
		})
		if err := grow(ov, src, n); err != nil {
			return nil, err
		}

		// Joins.
		ov.ResetCounters()
		var joined []core.ObjectID
		via, err := ov.RandomObject(rng)
		if err != nil {
			return nil, err
		}
		for len(joined) < e.Ops {
			id, err := ov.Join(src.Next(), via)
			if err != nil {
				if errors.Is(err, core.ErrDuplicate) {
					continue
				}
				return nil, err
			}
			joined = append(joined, id)
		}
		cj := ov.Counters()
		pt := MaintenancePoint{
			N:              n,
			JoinRouteSteps: float64(cj.JoinRouteSteps) / float64(e.Ops),
			FictivePerJoin: float64(cj.FictiveInserts) / float64(e.Ops),
		}
		// Joins are also charged their fictive removals, which are counted
		// in MaintenanceMessages; report the total per join.
		pt.JoinMaintenance = float64(cj.MaintenanceMessages) / float64(e.Ops)

		// Leaves (remove exactly the objects we added, restoring N).
		ov.ResetCounters()
		for _, id := range joined {
			if err := ov.Remove(id); err != nil {
				return nil, err
			}
		}
		cl := ov.Counters()
		pt.LeaveMaintenance = float64(cl.MaintenanceMessages) / float64(e.Ops)
		out = append(out, pt)
	}
	return out, nil
}
