package sim

import (
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	c := NewClock(2_500_000_000)
	if c.Now() != 0 {
		t.Fatal("new clock must start at zero")
	}
	c.Advance(100 * Nanosecond)
	if c.Now() != 100*Nanosecond {
		t.Fatalf("Now = %v", c.Now())
	}
	c.AdvanceTo(50 * Nanosecond) // earlier: no-op
	if c.Now() != 100*Nanosecond {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	c.AdvanceTo(200 * Nanosecond)
	if c.Now() != 200*Nanosecond {
		t.Fatalf("AdvanceTo: %v", c.Now())
	}
}

func TestClockCycles(t *testing.T) {
	c := NewClock(2_500_000_000) // 400 ps per cycle
	if got := c.CycleTime(1); got != 400*Picosecond {
		t.Fatalf("CycleTime(1) = %v", got)
	}
	c.AdvanceCycles(10)
	if c.Now() != 4*Nanosecond {
		t.Fatalf("10 cycles at 2.5GHz = %v, want 4ns", c.Now())
	}
	if got := c.Cycles(1 * Nanosecond); got != 3 {
		t.Fatalf("Cycles(1ns) = %d, want 3 (round up)", got)
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock(1e9).Advance(-1)
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:  "500ps",
		100 * Nanosecond:  "100.00ns",
		2500 * Nanosecond: "2.50us",
		10 * Millisecond:  "10.00ms",
		3 * Second:        "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d ps -> %q, want %q", int64(in), got, want)
		}
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(1, 2) != 1 || MaxTime(1, 2) != 2 {
		t.Fatal("MinTime/MaxTime broken")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := NewRand(8)
	same := 0
	a = NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(5, 9); v < 5 || v > 9 {
			t.Fatalf("Range out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 negative: %d", v)
		}
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(99)
	buckets := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, c := range buckets {
		if c < n/8-n/40 || c > n/8+n/40 {
			t.Fatalf("bucket %d has %d of %d (non-uniform)", i, c, n)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	if NewRand(0).Uint64() == 0 {
		t.Fatal("zero seed must still produce non-trivial output")
	}
}

func TestRandShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		a := make([]int, 20)
		for i := range a {
			a[i] = i
		}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen := make([]bool, 20)
		for _, v := range a {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.Inc("a")
	s.Add("a", 4)
	s.Set("b", 10)
	if s.Get("a") != 5 || s.Get("b") != 10 || s.Get("missing") != 0 {
		t.Fatalf("counters wrong: %v", s.Snapshot())
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0] != (CounterSample{Name: "a", Value: 5}) || snap[1] != (CounterSample{Name: "b", Value: 10}) {
		t.Fatalf("Snapshot = %v", snap)
	}
	s.Reset()
	if s.Get("a") != 0 || snap[0].Value != 5 {
		t.Fatal("Reset must not affect snapshots")
	}
	if s.String() == "" {
		t.Fatal("String should render counters")
	}
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Cycles converts a duration to whole cycles at the clock's frequency,
// rounding up (a partial cycle still occupies the pipeline).
func (c *Clock) Cycles(d Duration) int64 {
	per := int64(Second) / c.freq
	return (int64(d) + per - 1) / per
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
