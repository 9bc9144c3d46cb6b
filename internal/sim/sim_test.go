package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestDegreeExperimentShape(t *testing.T) {
	// Scaled-down Fig 5: the degree distribution is centred on 6 regardless
	// of the distribution.
	for _, dist := range Fig5Distributions {
		h, err := DegreeExperiment{N: 3000, Distribution: dist, Seed: 42}.Run()
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		objects := 0
		for _, row := range strings.Split(strings.TrimSpace(h.String()), "\n") {
			var degree, count int
			fmt.Sscanf(row, "%d\t%d", &degree, &count)
			objects += count
		}
		if objects != 3000 {
			t.Fatalf("%s: histogram over %d objects", dist, objects)
		}
		mean := h.Mean()
		if mean < 5.3 || mean > 6.0 {
			t.Errorf("%s: mean degree %.2f, expected slightly below 6", dist, mean)
		}
		mode, _ := h.Mode()
		if mode < 5 || mode > 7 {
			t.Errorf("%s: mode %d, expected near 6", dist, mode)
		}
		if mass := h.MassIn(3, 9); mass < 0.9 {
			t.Errorf("%s: only %.2f of mass in [3,9]", dist, mass)
		}
	}
}

func TestRouteExperimentGrowsPolylog(t *testing.T) {
	// Scaled-down Fig 6: hops grow, but far slower than sqrt(N).
	pts, err := RouteExperiment{
		MaxN: 4000, Checkpoint: 1000, Samples: 300,
		Distribution: "uniform", Seed: 7,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("checkpoints: %d", len(pts))
	}
	if pts[3].MeanHops <= pts[0].MeanHops {
		t.Fatalf("hops did not grow: %v", pts)
	}
	// sqrt scaling would double hops from 1000 to 4000 objects.
	if pts[3].MeanHops > pts[0].MeanHops*1.9 {
		t.Fatalf("hop growth looks polynomial: %.1f -> %.1f", pts[0].MeanHops, pts[3].MeanHops)
	}
	fit := FitPolylog(pts)
	if fit.Slope < 0.5 || fit.Slope > 4 {
		t.Errorf("polylog exponent %.2f wildly off", fit.Slope)
	}
}

func TestRouteExperimentSkewInsensitive(t *testing.T) {
	// Fig 6's headline: the curves for uniform and highly skewed data are
	// close. As analysed in EXPERIMENTS.md this holds for greedy routing
	// over vn ∪ LRn (the measurement the paper's curves are consistent
	// with); with cn shortcuts enabled, skewed data routes strictly
	// *faster* (most couples share the giant cluster), which we assert too.
	uni, err := RouteExperiment{MaxN: 3000, Samples: 300, Distribution: "uniform",
		DisableCloseNeighbours: true, Seed: 8}.Run()
	if err != nil {
		t.Fatal(err)
	}
	skew, err := RouteExperiment{MaxN: 3000, Samples: 300, Distribution: "alpha5",
		DisableCloseNeighbours: true, Seed: 8}.Run()
	if err != nil {
		t.Fatal(err)
	}
	ru, rs := uni[len(uni)-1].MeanHops, skew[len(skew)-1].MeanHops
	if rs > 2.5*ru || ru > 2.5*rs {
		t.Fatalf("distribution sensitivity too high: uniform %.1f vs alpha5 %.1f", ru, rs)
	}

	// Full protocol (cn included): skew can only help.
	skewCN, err := RouteExperiment{MaxN: 3000, Samples: 300, Distribution: "alpha5", Seed: 8}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := skewCN[len(skewCN)-1].MeanHops; got > rs+1 {
		t.Fatalf("cn shortcuts should not slow skewed routing: %.1f vs %.1f", got, rs)
	}
}

func TestMoreLongLinksHelp(t *testing.T) {
	// Fig 8's headline: k = 4 long links beat k = 1.
	k1, err := RouteExperiment{MaxN: 3000, Samples: 400, Distribution: "uniform", LongLinks: 1, Seed: 9}.Run()
	if err != nil {
		t.Fatal(err)
	}
	k4, err := RouteExperiment{MaxN: 3000, Samples: 400, Distribution: "uniform", LongLinks: 4, Seed: 9}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if k4[0].MeanHops >= k1[0].MeanHops {
		t.Fatalf("k=4 (%.1f hops) should beat k=1 (%.1f hops)",
			k4[0].MeanHops, k1[0].MeanHops)
	}
}

func TestAblationNoLongLinksIsWorse(t *testing.T) {
	with, err := RouteExperiment{MaxN: 2500, Samples: 300, Distribution: "uniform", Seed: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	without, err := RouteExperiment{MaxN: 2500, Samples: 300, Distribution: "uniform",
		DisableLongLinks: true, Seed: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if without[0].MeanHops <= with[0].MeanHops {
		t.Fatalf("long links must help: with %.1f, without %.1f",
			with[0].MeanHops, without[0].MeanHops)
	}
}

func TestWriteSeries(t *testing.T) {
	var b strings.Builder
	pts := []RoutePoint{{N: 1000, MeanHops: 12.5, StdHops: 3.25}}
	if err := WriteSeries(&b, "uniform", pts); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "# uniform\n") || !strings.Contains(got, "1000\t12.500\t3.250\n") {
		t.Fatalf("unexpected series output: %q", got)
	}
}

func TestUnknownDistribution(t *testing.T) {
	if _, err := (DegreeExperiment{N: 10, Distribution: "nope"}).Run(); err == nil {
		t.Fatal("want error for unknown distribution")
	}
	if _, err := (RouteExperiment{MaxN: 10, Samples: 1, Distribution: "nope"}).Run(); err == nil {
		t.Fatal("want error for unknown distribution")
	}
}
