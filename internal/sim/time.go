// Package sim provides the low-level simulation substrate shared by every
// component of the HOOP reproduction: a picosecond-resolution simulated
// clock, a deterministic pseudo-random number generator, and named
// statistics counters.
//
// Nothing in this package knows about caches, NVM, or transactions; it only
// models time and bookkeeping so that the rest of the simulator can stay
// deterministic and reproducible across runs.
package sim

import "fmt"

// Time is a point in simulated time, measured in picoseconds from the start
// of the simulation. Picosecond resolution lets us express both a 2.5 GHz
// CPU cycle (400 ps) and DRAM/NVM timing parameters exactly with integer
// arithmetic, avoiding floating-point drift in long runs.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Clock models the local time of one simulated agent (a CPU core, the
// garbage collector, a recovery thread). Components advance a clock by the
// latency of each operation they perform; the engine orders execution across
// agents by always running the agent with the smallest clock.
type Clock struct {
	now Time
	// freq is the agent's frequency in Hz; used to convert cycles to time.
	freq int64
}

// NewClock returns a clock starting at time zero for an agent running at
// freq Hz (e.g. 2.5e9 for the paper's 2.5 GHz cores).
func NewClock(freq int64) *Clock {
	if freq <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return &Clock{freq: freq}
}

// Now reports the agent's current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d panics: simulated time
// never flows backwards.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic("sim: cannot advance clock by negative duration")
	}
	c.now += d
	return c.now
}

// AdvanceCycles moves the clock forward by n CPU cycles at the clock's
// frequency.
func (c *Clock) AdvanceCycles(n int64) Time {
	return c.Advance(c.CycleTime(n))
}

// AdvanceTo moves the clock to t if t is later than the current time; used
// when an agent blocks on a shared resource that frees up at t.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// CycleTime converts n cycles at the clock's frequency to a Duration.
func (c *Clock) CycleTime(n int64) Duration {
	// ps per cycle = 1e12 / freq. For 2.5 GHz this is exactly 400.
	return Duration(n * (int64(Second) / c.freq))
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
