// Package workload generates the object-position distributions used in the
// paper's evaluation (§5): a uniform distribution over the unit square and
// power-law ("sparse") distributions in which the frequency of the i-th
// most popular attribute value is proportional to 1/i^α, with α ∈ {1, 2, 5}
// for low, mid and high skew.
//
// The power-law generator discretises each axis into equal cells, draws
// the cell index of each coordinate independently from a Zipf(α)
// distribution, and places the coordinate uniformly inside the chosen cell.
// This realises "frequency of the i-th most popular value ∝ 1/i^α" while
// keeping positions distinct (the paper's objects are distinct points).
// Rank i maps to cell i, so mass concentrates towards the origin corner.
//
// Note that Zipf(α=5) intrinsically puts ~96% of draws on the single most
// popular value whatever the support size (1/ζ(5) ≈ 0.964), so the high-
// skew workload is one giant cluster plus a sparse remainder — "sparse" in
// the paper's terms. We use 64 values per axis so the cluster has spatial
// extent (1/64 ≫ dmin at the paper's 300 000-object scale) rather than
// collapsing below dmin. Even so, objects inside the cluster hold thousands
// of close neighbours; routing measurements that use cn(o) as shortcuts
// therefore collapse for intra-cluster couples, and the paper's Fig 6 shape
// (α=5 ≈ uniform) is recovered exactly when greedy routing uses vn ∪ LRn
// only — see EXPERIMENTS.md for the analysis. Both variants are measured.
//
// All generators are deterministic given their *rand.Rand.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"voronet/internal/geom"
)

// Source yields object positions.
type Source interface {
	// Next returns the next position, in (or near) the unit square.
	Next() geom.Point
	// Name identifies the distribution in reports.
	Name() string
}

// Uniform is the uniform distribution over the unit square.
type Uniform struct {
	Rand *rand.Rand
}

// Next returns a uniform point.
func (u *Uniform) Next() geom.Point {
	return geom.Pt(u.Rand.Float64(), u.Rand.Float64())
}

// Name implements Source.
func (u *Uniform) Name() string { return "uniform" }

// defaultValues is the per-axis discretisation of the power-law generator
// (see the package comment for why it is coarse).
const defaultValues = 64

// powerLaw draws each coordinate from a Zipf(α) distribution over
// defaultValues discrete cells with uniform jitter inside the cell.
type powerLaw struct {
	alpha float64
	rng   *rand.Rand
	cdf   []float64 // cumulative Zipf weights
}

// newPowerLaw returns a power-law source with the given skew α > 0.
func newPowerLaw(alpha float64, rng *rand.Rand) *powerLaw {
	p := &powerLaw{alpha: alpha, rng: rng, cdf: make([]float64, defaultValues)}
	sum := 0.0
	for i := range p.cdf {
		sum += 1 / math.Pow(float64(i+1), alpha)
		p.cdf[i] = sum
	}
	for i := range p.cdf {
		p.cdf[i] /= sum
	}
	return p
}

// rank draws a cell index from the Zipf distribution by binary search over
// the cumulative weights.
func (p *powerLaw) rank() int {
	u := p.rng.Float64()
	lo, hi := 0, len(p.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Next returns the next skewed point.
func (p *powerLaw) Next() geom.Point {
	v := float64(defaultValues)
	x := (float64(p.rank()) + p.rng.Float64()) / v
	y := (float64(p.rank()) + p.rng.Float64()) / v
	return geom.Pt(x, y)
}

// Name implements Source.
func (p *powerLaw) Name() string {
	switch p.alpha {
	case 1:
		return "sparse(alpha=1)"
	case 2:
		return "sparse(alpha=2)"
	case 5:
		return "sparse(alpha=5)"
	}
	return "sparse"
}

// clusters draws points from Gaussian blobs of standard deviation sigma
// around uniformly drawn centres, clamped to the unit square: dense
// co-located groups like real attribute data, for stress tests.
type clusters struct {
	sigma   float64
	rng     *rand.Rand
	centres []geom.Point
}

// newClusters returns a source of n clusters.
func newClusters(n int, sigma float64, rng *rand.Rand) *clusters {
	c := &clusters{sigma: sigma, rng: rng}
	for i := 0; i < n; i++ {
		c.centres = append(c.centres, geom.Pt(rng.Float64(), rng.Float64()))
	}
	return c
}

// Next returns the next clustered point.
func (c *clusters) Next() geom.Point {
	ctr := c.centres[c.rng.Intn(len(c.centres))]
	p := geom.Pt(ctr.X+c.rng.NormFloat64()*c.sigma, ctr.Y+c.rng.NormFloat64()*c.sigma)
	return p.ClampUnitSquare()
}

// Name implements Source.
func (c *clusters) Name() string { return "clusters" }

// ZipfKeys yields keys drawn from a fixed set of K distinct uniform points
// with Zipf(α) popularity: the i-th most popular key is drawn with
// probability ∝ 1/i^α. Unlike the power-law source — whose in-cell jitter makes every
// draw a distinct point — ZipfKeys repeats the same points, which is the
// hot-key access pattern store stress tests need (a handful of keys absorb
// most of the traffic and hammer one owner's region).
type ZipfKeys struct {
	Alpha float64
	K     int
	Rand  *rand.Rand

	keys []geom.Point
	cdf  []float64
}

// NewZipfKeys returns a hot-key source over k distinct keys with skew
// α > 0. The key set itself is drawn uniformly from rng at construction.
// Non-positive k and α fall back to 16 keys and α = 1.
func NewZipfKeys(alpha float64, k int, rng *rand.Rand) *ZipfKeys {
	if k <= 0 {
		k = 16
	}
	if alpha <= 0 {
		alpha = 1
	}
	z := &ZipfKeys{Alpha: alpha, K: k, Rand: rng}
	z.keys = make([]geom.Point, k)
	for i := range z.keys {
		z.keys[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	z.cdf = make([]float64, k)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Next returns the next key; the most popular rank maps to keys[0].
func (z *ZipfKeys) Next() geom.Point {
	// cdf ascends to exactly 1 and Float64 draws are < 1, so the search
	// always lands in range.
	return z.keys[sort.SearchFloat64s(z.cdf, z.Rand.Float64())]
}

// Name implements Source.
func (z *ZipfKeys) Name() string { return "zipfkeys" }

// ByName returns the named source: "uniform", "alpha1", "alpha2", "alpha5"
// or "clusters". It returns nil for unknown names.
func ByName(name string, rng *rand.Rand) Source {
	switch name {
	case "uniform":
		return &Uniform{Rand: rng}
	case "alpha1":
		return newPowerLaw(1, rng)
	case "alpha2":
		return newPowerLaw(2, rng)
	case "alpha5":
		return newPowerLaw(5, rng)
	case "clusters":
		return newClusters(3, 0.01, rng)
	}
	return nil
}
