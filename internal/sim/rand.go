package sim

// Rand is a small, fast, deterministic pseudo-random number generator
// (xorshift64* variant). The simulator cannot use math/rand's global state
// because experiments must be reproducible bit-for-bit regardless of how
// many run in parallel; every workload thread owns a Rand seeded from the
// experiment seed and its thread ID.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has a zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &Rand{state: seed}
	// Warm up so that nearby seeds diverge quickly.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
