// Package kleinberg implements Kleinberg's small-world grid model (§2.1 of
// the VoroNet paper; Kleinberg, STOC 2000), the baseline VoroNet
// generalises: an n×n lattice where every vertex knows its four lattice
// neighbours plus k long-range contacts drawn with probability proportional
// to d^(-s) in lattice distance. Greedy routing needs Θ(log² n) expected
// hops exactly when s equals the dimension (s = 2).
//
// VoroNet's claim is that it achieves the same bound without the grid:
// benchmarks route both structures side by side on comparable sizes.
package kleinberg

import (
	"fmt"
	"math"
	"math/rand"
)

// Grid is an n×n Kleinberg small-world lattice.
type Grid struct {
	N int // side length
	K int // long-range contacts per node
	S float64

	long [][]int32 // long[v] = long-range contact node indices
}

// New builds the lattice and samples the long-range contacts. The radius
// of each contact is drawn log-uniformly for s = 2 (the same continuous
// trick as VoroNet's Choose-LRT) and by inverse-CDF of r^(1-s) otherwise;
// the angle is uniform. Contacts falling outside the grid are re-sampled.
func New(n, k int, s float64, rng *rand.Rand) *Grid {
	if n < 2 {
		panic("kleinberg: n must be >= 2")
	}
	g := &Grid{N: n, K: k, S: s, long: make([][]int32, n*n)}
	maxR := float64(2 * (n - 1))
	for v := 0; v < n*n; v++ {
		x, y := v%n, v/n
		contacts := make([]int32, 0, k)
		for len(contacts) < k {
			r := SampleRadius(1, maxR, s, rng.Float64())
			theta := rng.Float64() * 2 * math.Pi
			tx := x + int(math.Round(r*math.Cos(theta)))
			ty := y + int(math.Round(r*math.Sin(theta)))
			if tx < 0 || tx >= n || ty < 0 || ty >= n {
				continue
			}
			t := int32(ty*n + tx)
			if t == int32(v) {
				continue
			}
			contacts = append(contacts, t)
		}
		g.long[v] = contacts
	}
	return g
}

// SampleRadius maps one uniform draw u ∈ [0, 1) to a long-range radius on
// [rmin, rmax] with density proportional to r^(1-s), by inverse CDF — the
// radius draw of Choose-LRT (Algorithm 3), shared by the lattice above,
// the simulator (internal/core) and the live node (internal/node), which
// each draw u from their own source and the angle next. For s = 2 it is
// log-uniform: a ~ U[ln rmin, ln rmax], r = e^a.
func SampleRadius(rmin, rmax, s, u float64) float64 {
	if s == 2 {
		return math.Exp(math.Log(rmin) + u*(math.Log(rmax)-math.Log(rmin)))
	}
	e := 2 - s
	lo := math.Pow(rmin, e)
	hi := math.Pow(rmax, e)
	return math.Pow(lo+u*(hi-lo), 1/e)
}

// Nodes returns the number of lattice nodes.
func (g *Grid) Nodes() int { return g.N * g.N }

// dist is the lattice (Manhattan) distance.
func (g *Grid) dist(a, b int32) int {
	ax, ay := int(a)%g.N, int(a)/g.N
	bx, by := int(b)%g.N, int(b)/g.N
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// route greedily forwards from a to b over lattice plus long-range links,
// returning the hop count. Greedy always terminates: a lattice neighbour
// strictly reduces Manhattan distance.
func (g *Grid) route(a, b int32) (int, error) {
	if a < 0 || int(a) >= g.Nodes() || b < 0 || int(b) >= g.Nodes() {
		return 0, fmt.Errorf("kleinberg: node out of range")
	}
	cur := a
	hops := 0
	for cur != b {
		best := cur
		bestD := g.dist(cur, b)
		step := func(t int32) {
			if d := g.dist(t, b); d < bestD {
				best, bestD = t, d
			}
		}
		x, y := int(cur)%g.N, int(cur)/g.N
		if x > 0 {
			step(cur - 1)
		}
		if x < g.N-1 {
			step(cur + 1)
		}
		if y > 0 {
			step(cur - int32(g.N))
		}
		if y < g.N-1 {
			step(cur + int32(g.N))
		}
		for _, t := range g.long[cur] {
			step(t)
		}
		if best == cur {
			return hops, fmt.Errorf("kleinberg: greedy stalled at %d", cur)
		}
		cur = best
		hops++
	}
	return hops, nil
}

// MeanRouteLength samples `samples` random ordered pairs and returns the
// mean greedy hop count.
func (g *Grid) MeanRouteLength(samples int, rng *rand.Rand) (float64, error) {
	total := 0
	n := int32(g.Nodes())
	for i := 0; i < samples; i++ {
		a := rng.Int31n(n)
		b := rng.Int31n(n)
		h, err := g.route(a, b)
		if err != nil {
			return 0, err
		}
		total += h
	}
	return float64(total) / float64(samples), nil
}
