// Package loadgen generates open-loop request load for the service tier:
// arrival processes (Poisson and bursty), key-popularity distributions
// (Zipfian hot keys, uniform), multi-tenant operation mixes, a per-shard
// request Stream, and a saturation-sweep driver that ramps offered load
// until goodput collapses.
//
// Everything is deterministic given its seed: an open-loop schedule is
// simulated-time data (each request carries its arrival timestamp), not
// real-time behaviour, so the same seed produces the same byte-for-byte
// request stream however fast the shards drain it.
package loadgen

import (
	"math"

	"hoop/internal/sim"
)

// Arrivals produces interarrival gaps of an open-loop arrival process.
type Arrivals interface {
	// Next returns the simulated gap to the next arrival (>= 1 ps: two
	// requests never share an arrival instant, keeping per-shard FIFO
	// order unambiguous).
	Next() sim.Duration
}

// expGap draws an exponential interarrival gap with the given mean (ps).
func expGap(rng *sim.Rand, meanPS float64) sim.Duration {
	// 1-Float64() is in (0, 1], keeping Log finite.
	g := sim.Duration(-math.Log(1-rng.Float64()) * meanPS)
	if g < 1 {
		g = 1
	}
	return g
}

// Poisson is a constant-rate Poisson process: exponential interarrival
// gaps with mean 1/rate.
type Poisson struct {
	rng  *sim.Rand
	mean float64 // mean gap in picoseconds
}

// NewPoisson returns a Poisson arrival process at rate requests/second.
func NewPoisson(rng *sim.Rand, rate float64) *Poisson {
	if rate <= 0 {
		panic("loadgen: Poisson rate must be positive")
	}
	return &Poisson{rng: rng, mean: float64(sim.Second) / rate}
}

// Next implements Arrivals.
func (p *Poisson) Next() sim.Duration { return expGap(p.rng, p.mean) }

// Bursty is a two-state Markov-modulated Poisson process: it alternates
// between a base phase and a burst phase, each with exponentially
// distributed dwell time, drawing Poisson arrivals at the phase's rate.
// Because the exponential is memoryless, redrawing the gap after a phase
// switch is exact, not an approximation.
type Bursty struct {
	rng        *sim.Rand
	baseMean   float64 // mean gap in base phase (ps)
	burstMean  float64 // mean gap in burst phase (ps)
	dwellBase  float64 // mean base-phase length (ps)
	dwellBurst float64 // mean burst-phase length (ps)

	inBurst   bool
	phaseLeft sim.Duration
}

// NewBursty returns a bursty process: baseRate requests/second outside
// bursts, burstRate inside, with mean burst length burstLen and mean gap
// between bursts burstGap.
func NewBursty(rng *sim.Rand, baseRate, burstRate float64, burstLen, burstGap sim.Duration) *Bursty {
	if baseRate <= 0 || burstRate <= 0 {
		panic("loadgen: Bursty rates must be positive")
	}
	if burstLen <= 0 || burstGap <= 0 {
		panic("loadgen: Bursty phase lengths must be positive")
	}
	b := &Bursty{
		rng:        rng,
		baseMean:   float64(sim.Second) / baseRate,
		burstMean:  float64(sim.Second) / burstRate,
		dwellBase:  float64(burstGap),
		dwellBurst: float64(burstLen),
	}
	b.phaseLeft = expGap(rng, b.dwellBase)
	return b
}

// Next implements Arrivals.
func (b *Bursty) Next() sim.Duration {
	var total sim.Duration
	for {
		mean := b.baseMean
		if b.inBurst {
			mean = b.burstMean
		}
		gap := expGap(b.rng, mean)
		if gap < b.phaseLeft {
			b.phaseLeft -= gap
			total += gap
			if total < 1 {
				total = 1
			}
			return total
		}
		// The phase ends before the drawn arrival: walk to the boundary,
		// switch phases, redraw (memorylessness makes this exact).
		total += b.phaseLeft
		b.inBurst = !b.inBurst
		dwell := b.dwellBase
		if b.inBurst {
			dwell = b.dwellBurst
		}
		b.phaseLeft = expGap(b.rng, dwell)
	}
}
