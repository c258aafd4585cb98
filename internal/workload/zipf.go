// Package workload implements the paper's benchmark suite (Table III): the
// five synthetic data-structure workloads (vector, hashmap, queue, RB-tree,
// B-tree) over 64-byte and 1 KB items, the YCSB cloud benchmark with a
// Zipfian key distribution against an N-store-style table, and the TPC-C
// new-order transaction. Each workload thread owns a private arena (the
// paper runs per-thread database tables), and every operation flows through
// the simulated memory hierarchy.
package workload

import (
	"math"

	"hoop/internal/sim"
)

// Zipf generates Zipfian-distributed values in [0, n) with skew theta,
// using the Gray et al. method YCSB uses (§IV-A cites the YCSB Zipfian
// distribution [11]). Deterministic given its Rand.
type Zipf struct {
	rng   *sim.Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	// rank1 is 1 + 0.5^theta: draws with u·zetan below it (and at least
	// 1) return rank 1.
	rank1 float64
}

// NewZipf builds a generator over [0, n). theta=0.99 is the YCSB default.
func NewZipf(rng *sim.Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf over empty range")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zeta2 = zeta(2, theta)
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.rank1 = 1.0 + powF(0.5, theta)
	return z
}

// Next returns the next sample. Rank 0 is the hottest key.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := uint64(float64(z.n) * powF(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func zeta(n uint64, theta float64) float64 {
	// For the table sizes used here (≤ 64 Ki keys) the direct sum is fine.
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / powF(float64(i), theta)
	}
	return sum
}

func powF(x, y float64) float64 { return math.Pow(x, y) }
