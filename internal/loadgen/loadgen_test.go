package loadgen

import (
	"math"
	"testing"

	"hoop/internal/service"
	"hoop/internal/sim"
)

func TestPoissonMeanGap(t *testing.T) {
	const rate = 1e6 // 1M/s → mean gap 1us
	p := NewPoisson(sim.NewRand(1), rate)
	const n = 200000
	var sum sim.Duration
	for i := 0; i < n; i++ {
		g := p.Next()
		if g < 1 {
			t.Fatalf("gap %v < 1ps", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	want := float64(sim.Second) / rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean gap %.0fps, want %.0fps ±2%%", mean, want)
	}
}

func TestBurstyMeanRate(t *testing.T) {
	// Equal dwell times at rates r and 8r → long-run mean 4.5r.
	b := NewBursty(sim.NewRand(2), 1e5, 8e5, sim.Millisecond, sim.Millisecond)
	if got, want := b.MeanRate(), 4.5e5; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("MeanRate = %.0f, want %.0f", got, want)
	}

	// Empirical rate over many phase alternations should approach it.
	var elapsed sim.Duration
	n := 0
	for elapsed < 2*sim.Second {
		elapsed += b.Next()
		n++
	}
	got := float64(n) / elapsed.Seconds()
	if math.Abs(got-4.5e5)/4.5e5 > 0.05 {
		t.Errorf("empirical rate %.0f/s, want 450000/s ±5%%", got)
	}
}

func TestBurstyRegimes(t *testing.T) {
	// With long dwells relative to gaps, most consecutive gaps come from a
	// single phase, so the gap distribution is visibly bimodal: many gaps
	// near the burst mean, many near the base mean.
	b := NewBursty(sim.NewRand(3), 1e5, 1e7, 10*sim.Millisecond, 10*sim.Millisecond)
	var shortGaps, longGaps int
	for i := 0; i < 100000; i++ {
		g := b.Next()
		if g < 1000*sim.Picosecond*1000 { // < 1us: burst-phase territory (mean 100ns)
			shortGaps++
		} else if g > 2*sim.Microsecond {
			longGaps++
		}
	}
	if shortGaps == 0 || longGaps == 0 {
		t.Errorf("gap distribution not bimodal: %d short, %d long", shortGaps, longGaps)
	}
	// Bursts are 100x faster, equal dwell → ~99% of arrivals in-burst.
	if frac := float64(shortGaps) / 100000; frac < 0.8 {
		t.Errorf("burst-phase arrivals = %.2f of total, want > 0.8", frac)
	}
}

func TestUniformKeysRange(t *testing.T) {
	u := NewUniformKeys(sim.NewRand(4), 97)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		k := u.Next()
		if k >= 97 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 97 {
		t.Errorf("uniform draw covered %d/97 keys", len(seen))
	}
}

func TestZipfKeysSkew(t *testing.T) {
	const n = 10000
	z := NewZipfKeys(sim.NewRand(5), n, 0.99)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	// Under theta=0.99 the hottest key draws several percent of traffic;
	// uniform would give 0.01%.
	if frac := float64(hottest) / draws; frac < 0.01 {
		t.Errorf("hottest key has %.4f of traffic — no Zipfian skew", frac)
	}
}

func TestStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{
		Seed:    99,
		Keys:    4096,
		Rate:    1e6,
		Tenants: Mixes["mixed"],
		Horizon: 5 * sim.Millisecond,
	}
	gen := func(c StreamConfig) []uint64 {
		s, err := NewStream(c)
		if err != nil {
			t.Fatal(err)
		}
		var sig []uint64
		for {
			req, ok := s.Next()
			if !ok {
				break
			}
			sig = append(sig, uint64(req.Arrival), uint64(req.Kind), req.Key, req.Aux, req.Seq)
		}
		return sig
	}
	a, b := gen(cfg), gen(cfg)
	if len(a) == 0 {
		t.Fatal("stream produced nothing")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams with equal seeds diverge at word %d", i)
		}
	}
	cfg.Seed = 100
	c := gen(cfg)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("streams with different seeds are identical")
	}
}

func TestStreamHorizonAndSeq(t *testing.T) {
	cfg := StreamConfig{Seed: 7, Keys: 128, Rate: 1e6, Horizon: sim.Millisecond, SeqBase: 1 << 48}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	var last sim.Time
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		n++
		if req.Arrival >= sim.Time(cfg.Horizon) {
			t.Fatalf("arrival %v at/after horizon", req.Arrival)
		}
		if req.Arrival <= last && n > 1 {
			t.Fatalf("arrivals not strictly increasing: %v after %v", req.Arrival, last)
		}
		last = req.Arrival
		if req.Seq != cfg.SeqBase+n {
			t.Fatalf("seq %d, want %d", req.Seq, cfg.SeqBase+n)
		}
	}
	if s.Generated() != n {
		t.Fatalf("Generated() = %d, want %d", s.Generated(), n)
	}
	// ~1000 expected at 1M/s over 1ms.
	if n < 800 || n > 1200 {
		t.Errorf("generated %d requests, want ≈1000", n)
	}
}

func TestStreamErrors(t *testing.T) {
	bad := []StreamConfig{
		{Keys: 0, Rate: 1, Horizon: 1},
		{Keys: 1, Rate: 0, Horizon: 1},
		{Keys: 1, Rate: 1, Horizon: 0},
		{Keys: 1, Rate: 1, Horizon: 1, Tenants: []Tenant{{Name: "w0", Weight: 0, Mix: OpMix{Get: 1}}}},
		{Keys: 1, Rate: 1, Horizon: 1, Tenants: []Tenant{{Name: "empty", Weight: 1}}},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("config %d: NewStream succeeded, want error", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	cfg := StreamConfig{
		Seed:    11,
		Keys:    1024,
		Rate:    1e7,
		Tenants: []Tenant{{Name: "even", Weight: 1, Mix: OpMix{Get: 0.5, Update: 0.5}}},
		Horizon: 10 * sim.Millisecond,
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gets, updates, other int
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		switch req.Kind {
		case service.OpGet:
			gets++
		case service.OpUpdate:
			updates++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("%d requests outside the 50/50 get/update mix", other)
	}
	total := gets + updates
	if frac := float64(gets) / float64(total); frac < 0.47 || frac > 0.53 {
		t.Errorf("gets = %.3f of stream, want 0.5 ±0.03 (n=%d)", frac, total)
	}
}

func TestMixedTenantsProduceAllOps(t *testing.T) {
	cfg := StreamConfig{
		Seed:    13,
		Keys:    1024,
		Rate:    1e7,
		Tenants: Mixes["mixed"],
		Horizon: 10 * sim.Millisecond,
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var counts [4]int
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		counts[req.Kind]++
	}
	if counts[service.OpGet] == 0 || counts[service.OpPut] == 0 || counts[service.OpUpdate] == 0 {
		t.Errorf("mixed tenants op counts = %v, want gets/puts/updates all present", counts)
	}
}

// TestSaturationSweep drives the sweeper with a synthetic system of
// capacity 1000/s: goodput tracks offered load up to the knee, then
// flattens while shed climbs. The sweep must stop past the knee and report
// the best-goodput rung.
func TestSaturationSweep(t *testing.T) {
	const capacity = 1000.0
	var rungs []float64
	res := SaturationSweep(250, 2, 10, func(rate float64) SweepPoint {
		rungs = append(rungs, rate)
		offered := int64(rate)
		executed := offered
		if rate > capacity {
			executed = int64(capacity)
		}
		return SweepPoint{
			Offered:  offered,
			Executed: executed,
			Shed:     offered - executed,
			Span:     sim.Second,
		}
	})
	if res.Saturation.Goodput() != capacity {
		t.Errorf("saturation goodput = %.0f, want %.0f", res.Saturation.Goodput(), capacity)
	}
	// 250, 500, 1000, 2000 (shed 50%), stop at 4000 (shed > 0.5 triggers
	// after recording) — it must not run all 10 rungs.
	if len(rungs) >= 10 {
		t.Errorf("sweep ran %d rungs without stopping", len(rungs))
	}
	if last := rungs[len(rungs)-1]; last <= capacity {
		t.Errorf("sweep stopped at %.0f/s, before the knee", last)
	}
}

func TestSweepPointAccessors(t *testing.T) {
	p := SweepPoint{Offered: 100, Executed: 80, Shed: 20, Span: sim.Second / 2}
	if got := p.Goodput(); got != 160 {
		t.Errorf("Goodput = %.0f, want 160", got)
	}
	if got := p.ShedFrac(); got != 0.2 {
		t.Errorf("ShedFrac = %.2f, want 0.2", got)
	}
	var zero SweepPoint
	if zero.Goodput() != 0 || zero.ShedFrac() != 0 {
		t.Error("zero SweepPoint accessors must not divide by zero")
	}
}

// MeanRate reports the long-run average rate (requests/second) of the
// process, for offered-load accounting.
func (b *Bursty) MeanRate() float64 {
	pBurst := b.dwellBurst / (b.dwellBurst + b.dwellBase)
	return (pBurst/b.burstMean + (1-pBurst)/b.baseMean) * float64(sim.Second)
}
