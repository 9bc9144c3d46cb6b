package sim

import (
	"math"
	"testing"
)

func TestMaintenanceCostsScale(t *testing.T) {
	// With clamped long-link targets the paper's O(1)-maintenance analysis
	// holds empirically; the unclamped (paper-literal) variant is measured
	// below and its hull pile-up documented in EXPERIMENTS.md.
	pts, err := MaintenanceExperiment{
		Sizes:           []int{1000, 4000, 16000},
		Ops:             150,
		Distribution:    "uniform",
		InteriorTargets: true,
		Seed:            61,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points: %d", len(pts))
	}
	small, large := pts[0], pts[2]

	// Routing part of a join grows (poly-logarithmically) with N...
	if large.JoinRouteSteps <= small.JoinRouteSteps {
		t.Errorf("join route steps should grow with N: %.1f -> %.1f",
			small.JoinRouteSteps, large.JoinRouteSteps)
	}
	// ...but far slower than sqrt scaling (x4 for a 16x size increase).
	if large.JoinRouteSteps > 3*small.JoinRouteSteps {
		t.Errorf("join route steps grew polynomially: %.1f -> %.1f",
			small.JoinRouteSteps, large.JoinRouteSteps)
	}
	// Maintenance is O(1): no systematic growth (generous 2x headroom for
	// sampling noise).
	if large.JoinMaintenance > 2*small.JoinMaintenance {
		t.Errorf("join maintenance not O(1): %.1f -> %.1f",
			small.JoinMaintenance, large.JoinMaintenance)
	}
	if large.LeaveMaintenance > 2*small.LeaveMaintenance {
		t.Errorf("leave maintenance not O(1): %.1f -> %.1f",
			small.LeaveMaintenance, large.LeaveMaintenance)
	}
	// Fictive objects per join: Algorithm 1 uses at most 1, plus 2 per
	// long link (Algorithm 2), here k=1 => at most 3.
	if large.FictivePerJoin <= 0 || large.FictivePerJoin > 3 {
		t.Errorf("fictive inserts per join: %.2f", large.FictivePerJoin)
	}
}

func TestMaintenanceHullPileUpWithoutClamping(t *testing.T) {
	// Paper-literal targets (LRt may leave the unit square): exterior
	// targets pile onto the few hull objects and the fictive-object
	// shuffle drags join maintenance up with N. This test pins the
	// finding: unclamped join maintenance grows markedly while the
	// clamped variant stays flat.
	sizes := []int{1000, 16000}
	unclamped, err := MaintenanceExperiment{
		Sizes: sizes, Ops: 120, Distribution: "uniform", Seed: 62,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := MaintenanceExperiment{
		Sizes: sizes, Ops: 120, Distribution: "uniform", InteriorTargets: true, Seed: 62,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	growU := unclamped[1].JoinMaintenance / unclamped[0].JoinMaintenance
	growC := clamped[1].JoinMaintenance / clamped[0].JoinMaintenance
	t.Logf("join maintenance growth 1k->16k: unclamped %.2fx, clamped %.2fx", growU, growC)
	if growU < growC {
		t.Errorf("expected the unclamped hull pile-up to dominate: %.2fx vs %.2fx", growU, growC)
	}
}

func TestMaintenanceExperimentErrors(t *testing.T) {
	if _, err := (MaintenanceExperiment{Sizes: []int{10}, Distribution: "nope"}).Run(); err == nil {
		t.Fatal("unknown distribution must error")
	}
}

// TestMaintenanceChargePinned pins what the CI smoke run of
// `voronet-bench -maintenance -n 4000` measures — its sizes, operation
// count, distribution and the command's default seed — as whole counts
// over the 200 operations of each row: the joins' routing hops and
// maintenance messages, the leaves' messages, and the fictive objects
// charged. The printed table rounds these to one or two decimals; a change
// to what a join is charged moves a count.
func TestMaintenanceChargePinned(t *testing.T) {
	const ops = 200
	want := []struct {
		interior                                  bool
		n                                         int
		joinRoute, joinMaint, leaveMaint, fictive float64
	}{
		{false, 1000, 3376, 4513, 1922, 353},
		{false, 4000, 5175, 4881, 1972, 385},
		{true, 1000, 3162, 3738, 1961, 349},
		{true, 4000, 4613, 3783, 1972, 360},
	}
	matched := 0
	for _, interior := range []bool{false, true} {
		pts, err := MaintenanceExperiment{
			Sizes: []int{1000, 4000}, Ops: ops, Distribution: "uniform",
			InteriorTargets: interior, Seed: 20070326,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			got := [4]float64{p.JoinRouteSteps, p.JoinMaintenance, p.LeaveMaintenance, p.FictivePerJoin}
			for i := range got {
				got[i] = math.Round(got[i] * ops)
			}
			for _, w := range want {
				if w.interior != interior || w.n != p.N {
					continue
				}
				matched++
				if exp := [4]float64{w.joinRoute, w.joinMaint, w.leaveMaint, w.fictive}; got != exp {
					t.Errorf("interior=%v N=%d: joinRoute, joinMaint, leaveMaint, fictive = %v over %d ops, pinned %v",
						interior, p.N, got, ops, exp)
				}
			}
		}
	}
	if matched != len(want) {
		t.Errorf("%d of %d pinned rows measured", matched, len(want))
	}
}
