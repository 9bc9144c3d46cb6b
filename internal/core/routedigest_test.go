package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"voronet/internal/geom"
)

// routeScenario is one overlay of TestRouteDigest.
type routeScenario struct {
	name string
	n    int
	cfg  Config
	// exterior is the share of objects (seed and churn alike) placed in
	// the band around the unit square instead of inside it.
	exterior float64
}

var routeScenarios = []routeScenario{
	{name: "uniform20k", n: 20000, cfg: Config{NMax: 20000}},
	{name: "k3", n: 5000, cfg: Config{NMax: 5000, LongLinks: 3}},
	{name: "nocn", n: 5000, cfg: Config{NMax: 5000, DisableCloseNeighbours: true}},
	// Four times the default radius: ~16 close neighbours per object, so
	// the cn scan decides hops that vn alone would decide otherwise.
	{name: "dmin4x", n: 5000, cfg: Config{NMax: 5000, DMin: 4 * DefaultDMin(5000)}},
	{name: "exterior", n: 400, cfg: Config{NMax: 400}, exterior: 0.1},
}

// routeDigests pins the routes hop for hop. The constants were printed by
// this very file at commit c023bab (the parent of the change that moved
// the hop's state into vertex-indexed arrays), scenario-major, seeds 1-3.
var routeDigests = map[string][3]uint64{
	"uniform20k": {0x63e4c8be68f58c40, 0x3f5ded5dfb419945, 0x0593812af1a57208},
	"k3":         {0xe35a406598ea9626, 0xe4b5b7f8b2e8550a, 0xf42f9fb7d4f008ac},
	"nocn":       {0x9cae69207d66cf95, 0x8acbbb3b38d4fc24, 0x264f319422786935},
	"dmin4x":     {0xd698dce13e5f2ffe, 0x6efb9dd7d816dfef, 0xeaf2e22ce32e64e8},
	"exterior":   {0x8964205ca6326f64, 0xfbeb079338d709ed, 0xb02c02322777da5a},
}

// TestRouteDigest bulk-loads each scenario, routes 5 000 points and 2 000
// object pairs through a Router, churns the overlay with 2 000 alternating
// Join/Remove steps (vertex slots are recycled, long-link slots cleared and
// refilled, grid chains unlinked) and routes again, folding every (stop,
// owner, hops) into one FNV-1a digest. It is written against exported
// accessors only, so the same file compiles before and after a change to
// the hop's data layout; any change to a candidate order, a tie-break or a
// skip changes a digest.
func TestRouteDigest(t *testing.T) {
	for _, sc := range routeScenarios {
		for seed := int64(1); seed <= 3; seed++ {
			got := routeDigest(t, sc, seed)
			if want := routeDigests[sc.name][seed-1]; got != want {
				t.Errorf("%s seed %d: digest %#016x, pinned %#016x", sc.name, seed, got, want)
			}
		}
	}
}

// routeDigestPoint draws an object position: inside the unit square, or —
// with probability exterior — in the band of width 0.5 around it.
func routeDigestPoint(rng *rand.Rand, exterior float64) geom.Point {
	if rng.Float64() >= exterior {
		return geom.Pt(rng.Float64(), rng.Float64())
	}
	for {
		p := geom.Pt(2*rng.Float64()-0.5, 2*rng.Float64()-0.5)
		if !p.InUnitSquare() {
			return p
		}
	}
}

func routeDigest(t *testing.T, sc routeScenario, seed int64) uint64 {
	t.Helper()
	cfg := sc.cfg
	cfg.Seed = seed + 2000 // distinct from the position stream's
	o := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, sc.n)
	for i := range pts {
		pts[i] = routeDigestPoint(rng, sc.exterior)
	}
	live, err := o.BulkLoad(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range live {
		if id == NoObject {
			t.Fatalf("%s seed %d: duplicate position in the draw", sc.name, seed)
		}
	}

	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	r := o.NewRouter()
	routeAll := func() {
		for i := 0; i < 5000; i++ {
			from := live[rng.Intn(len(live))]
			// A quarter of the band [-0.25, 1.25]² is outside the square:
			// exterior targets stop at hull objects.
			target := geom.Pt(1.5*rng.Float64()-0.25, 1.5*rng.Float64()-0.25)
			res, err := r.RouteToPoint(from, target)
			if err != nil {
				t.Fatalf("%s seed %d: RouteToPoint(%d, %v): %v", sc.name, seed, from, target, err)
			}
			put(uint64(res.Stop))
			put(uint64(res.Owner))
			put(uint64(res.Hops))
		}
		for i := 0; i < 2000; i++ {
			from, to := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			hops, err := r.routeToObject(from, to)
			if err != nil {
				t.Fatalf("%s seed %d: RouteToObject(%d, %d): %v", sc.name, seed, from, to, err)
			}
			put(uint64(hops))
		}
	}
	routeAll()

	for step := 0; step < 2000; step++ {
		if step%2 == 0 {
			via := live[rng.Intn(len(live))]
			id, err := o.Join(routeDigestPoint(rng, sc.exterior), via)
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
	if err := o.CheckInvariants(sc.n <= 5000); err != nil {
		t.Fatalf("%s seed %d: %v", sc.name, seed, err)
	}
	routeAll()
	put(r.Steps)
	return h.Sum64()
}
