// Command hoopd runs a sharded KV soak: N engine shards behind the
// service tier's consistent-hash ring, driven by open-loop load
// (Poisson or bursty arrivals, Zipfian hot keys, multi-tenant mixes),
// reporting per-shard and fleet-wide latency percentiles, goodput, and —
// with -sweep — the saturation throughput where goodput collapses.
//
// Routing modes:
//
//	-route sharded  (default) one independent derived stream per shard:
//	                shard j's run is byte-identical for every -shards
//	                value (weak scaling; -rate is per shard)
//	-route ring     one fleet-wide stream routed by the jump-hash ring:
//	                realistic cross-shard key skew (-rate is per shard;
//	                the fleet stream offers rate×shards)
//
// Usage:
//
//	hoopd [-scheme HOOP] [-seed 1] [-shards 4] [-rate 250000]
//	      [-duration 20ms] [-keys 16384] [-val 64] [-mix update-heavy]
//	      [-arrivals poisson|bursty] [-route sharded|ring]
//	      [-policy block|shed] [-sheddelay 50us] [-queue 1024]
//	      [-sweep] [-sweepfactor 2] [-sweepsteps 5]
//	      [-trace out.jsonl] [-cpuprofile p] [-memprofile p]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hoop/internal/clihelp"
	"hoop/internal/engine"
	"hoop/internal/loadgen"
	"hoop/internal/service"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hoopd: %v\n", err)
		os.Exit(1)
	}
}

// soakConfig is the fully resolved run description.
type soakConfig struct {
	common   clihelp.Common
	shards   int
	rate     float64
	duration sim.Duration
	keys     uint64
	val      int
	mix      []loadgen.Tenant
	mixName  string
	arrivals loadgen.ArrivalKind
	burstF   float64
	burstLen sim.Duration
	burstGap sim.Duration
	ringMode bool
	policy   service.Policy
	shedDly  sim.Duration
	queue    int
	theta    float64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoopd", flag.ContinueOnError)
	common := clihelp.Common{Scheme: engine.SchemeHOOP, Seed: 1}
	common.Register(fs, clihelp.FlagScheme, clihelp.FlagSeed, clihelp.FlagTrace, clihelp.FlagProfile,
		clihelp.FlagWorkloads)
	shards := fs.Int("shards", 4, "engine shards (one goroutine + engine + scheme instance each)")
	rate := fs.Float64("rate", 250000, "offered arrival rate per shard (requests/second)")
	duration := fs.String("duration", "20ms", "simulated soak length (Go duration, e.g. 50ms)")
	keys := fs.Uint64("keys", 16384, "keyspace size (per shard; global with -route ring)")
	val := fs.Int("val", 64, "value size in bytes (word multiple)")
	mix := fs.String("mix", "update-heavy", "tenant mix ("+loadgen.MixNames()+")")
	arrivals := fs.String("arrivals", "poisson", "arrival process (poisson, bursty)")
	burstF := fs.Float64("burstfactor", 8, "bursty: rate multiplier inside bursts")
	burstLen := fs.String("burstlen", "1ms", "bursty: mean burst length (simulated)")
	burstGap := fs.String("burstgap", "4ms", "bursty: mean gap between bursts (simulated)")
	route := fs.String("route", "sharded", "submission path (sharded: per-shard streams; ring: jump-hash routed)")
	policy := fs.String("policy", "block", "backpressure policy (block, shed)")
	shedDelay := fs.String("sheddelay", "50us", "shed: max simulated queueing delay before dropping")
	queue := fs.Int("queue", 1024, "per-shard admission-queue depth")
	theta := fs.Float64("theta", -1, "override every tenant's Zipfian theta (-1: keep mix defaults, 0: uniform)")
	sweep := fs.Bool("sweep", false, "saturation sweep: ramp -rate geometrically until goodput collapses")
	sweepFactor := fs.Float64("sweepfactor", 2, "sweep: rate multiplier per rung")
	sweepSteps := fs.Int("sweepsteps", 5, "sweep: maximum rungs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := clihelp.CheckArgs(fs); err != nil {
		return err
	}

	cfg := soakConfig{
		common:  common,
		shards:  *shards,
		rate:    *rate,
		keys:    *keys,
		val:     *val,
		mixName: *mix,
		burstF:  *burstF,
		queue:   *queue,
		theta:   *theta,
	}
	var err error
	if cfg.duration, err = parseSimDuration(*duration); err != nil {
		return fmt.Errorf("-duration: %w", err)
	}
	if cfg.burstLen, err = parseSimDuration(*burstLen); err != nil {
		return fmt.Errorf("-burstlen: %w", err)
	}
	if cfg.burstGap, err = parseSimDuration(*burstGap); err != nil {
		return fmt.Errorf("-burstgap: %w", err)
	}
	if cfg.shedDly, err = parseSimDuration(*shedDelay); err != nil {
		return fmt.Errorf("-sheddelay: %w", err)
	}
	if cfg.arrivals, err = loadgen.ParseArrivalKind(*arrivals); err != nil {
		return err
	}
	switch *route {
	case "sharded":
	case "ring":
		cfg.ringMode = true
	default:
		return fmt.Errorf("-route: unknown mode %q (sharded, ring)", *route)
	}
	switch *policy {
	case "block":
		cfg.policy = service.PolicyBlock
	case "shed":
		cfg.policy = service.PolicyShed
	default:
		return fmt.Errorf("-policy: unknown policy %q (block, shed)", *policy)
	}
	tenants, ok := loadgen.Mixes[*mix]
	if !ok {
		return fmt.Errorf("-mix: unknown mix %q (known: %s)", *mix, loadgen.MixNames())
	}
	// -workloads/-suite override -mix: each selected registry workload
	// becomes one equally weighted tenant with its own op mix and skew.
	if wls, err := common.ResolveSuite(workload.Options{}); err != nil {
		return err
	} else if len(wls) > 0 {
		tenants = tenants[:0:0]
		for _, w := range wls {
			tenants = append(tenants, tenantFromWorkload(w))
		}
		if common.Workloads != "" {
			cfg.mixName = "workloads:" + common.Workloads
		} else {
			cfg.mixName = "suite:" + common.Suite
		}
		valSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "val" {
				valSet = true
			}
		})
		if !valSet {
			cfg.val = wls[0].Opts.ValBytes
		}
	}
	cfg.mix = applyTheta(tenants, *theta)
	if cfg.shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *sweep {
		return runSweep(out, cfg, *sweepFactor, *sweepSteps)
	}
	start := time.Now()
	res, err := runSoak(cfg, common.Trace)
	if err != nil {
		return err
	}
	report(out, cfg, res)
	fmt.Fprintf(out, "\nwall-clock: %.1fs\n", time.Since(start).Seconds())
	return nil
}

// applyTheta clones the tenant mix, overriding every theta when override
// is non-negative.
func applyTheta(tenants []loadgen.Tenant, override float64) []loadgen.Tenant {
	out := make([]loadgen.Tenant, len(tenants))
	copy(out, tenants)
	if override >= 0 {
		for i := range out {
			out[i].Theta = override
		}
	}
	return out
}

// tenantFromWorkload maps a registry workload's resolved op mix onto the
// service tier's vocabulary: reads and scans become gets, updates and
// read-modify-writes become single-word updates, inserts become puts. The
// workload's key skew carries over (uniform mixes get theta 0).
func tenantFromWorkload(w workload.Workload) loadgen.Tenant {
	o := w.Opts
	theta := 0.0
	if o.Dist != "uniform" {
		theta = o.Theta
	}
	m := loadgen.OpMix{
		Get:    o.Mix.Read + o.Mix.Scan,
		Update: o.Mix.Update + o.Mix.RMW,
		Put:    o.Mix.Insert,
	}
	if m.Get+m.Put+m.Update == 0 {
		m.Update = 1 // synthetic structures mutate on every op
	}
	return loadgen.Tenant{Name: w.Name, Weight: 1, Mix: m, Theta: theta}
}

// parseSimDuration reads a Go duration string as simulated time.
func parseSimDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration must be positive, got %v", d)
	}
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond, nil
}

// soakResult is everything one soak run reports.
type soakResult struct {
	offered  []uint64 // per shard, from the generators
	executed []int64
	shed     []int64
	maxDelay []sim.Duration
	span     []sim.Duration // serving span (excludes setup/preload)
	sojourn  []sim.Histogram
	merged   sim.Histogram
	fleet    loadgen.SweepPoint
}

// runSoak executes one complete soak at cfg's rate and returns the
// measurements. When tracePath is non-empty the per-shard JSONL traces are
// written there.
func runSoak(cfg soakConfig, tracePath string) (*soakResult, error) {
	ec := engine.DefaultConfig(cfg.common.Scheme)
	ec.Threads = 1

	var tc *telemetry.CellTrace
	if tracePath != "" {
		tc = &telemetry.CellTrace{}
	}
	ring := service.NewRing(cfg.shards)
	handlers := make([]*service.KVHandler, cfg.shards)
	for i := range handlers {
		kc := service.KVConfig{Keys: cfg.keys, ValBytes: cfg.val}
		if cfg.ringMode {
			kc.Ring = &ring
		}
		h, err := service.NewKVHandler(kc)
		if err != nil {
			return nil, err
		}
		handlers[i] = h
	}
	svc, err := service.Open(service.Config{
		Shards:     cfg.shards,
		Seed:       cfg.common.Seed,
		Engine:     ec,
		Handler:    func(i int) engine.ShardHandler { return handlers[i] },
		QueueDepth: cfg.queue,
		Policy:     cfg.policy,
		ShedDelay:  cfg.shedDly,
		Trace:      tc,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	res := &soakResult{offered: make([]uint64, cfg.shards)}
	svc.Serve()
	if cfg.ringMode {
		// One fleet-wide stream over the global keyspace, routed by key.
		st, err := newStream(cfg, cfg.common.Seed, cfg.rate*float64(cfg.shards), 0)
		if err != nil {
			return nil, err
		}
		for {
			req, ok := st.Next()
			if !ok {
				break
			}
			shard := svc.Submit(req.Arrival, req.Kind, req.Key, req.Aux)
			res.offered[shard]++
		}
	} else {
		// One independent derived stream per shard: shard j's run is a
		// pure function of (seed, j) — identical at every shard count.
		streams := make([]*loadgen.Stream, cfg.shards)
		for j := range streams {
			st, err := newStream(cfg, engine.ShardSeed(cfg.common.Seed, j), cfg.rate, uint64(j)<<48)
			if err != nil {
				return nil, err
			}
			streams[j] = st
		}
		var wg sync.WaitGroup
		for j := 0; j < cfg.shards; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for {
					req, ok := streams[j].Next()
					if !ok {
						return
					}
					svc.SubmitTo(j, req)
				}
			}(j)
		}
		wg.Wait()
		for j, st := range streams {
			res.offered[j] = st.Generated()
		}
	}
	svc.Quiesce()

	for j := 0; j < cfg.shards; j++ {
		sh := svc.Shard(j)
		res.executed = append(res.executed, sh.Executed())
		res.shed = append(res.shed, sh.Shed())
		res.maxDelay = append(res.maxDelay, sh.MaxQueueDelay())
		res.span = append(res.span, svc.StreamSpan(j))
		res.sojourn = append(res.sojourn, sh.Sojourn())
	}
	res.merged = svc.MergedSojourn()
	var offered int64
	for _, n := range res.offered {
		offered += int64(n)
	}
	res.fleet = loadgen.SweepPoint{
		Rate:     cfg.rate,
		Offered:  offered,
		Executed: svc.Executed(),
		Shed:     svc.Shed(),
		Span:     svc.MaxStreamSpan(),
		P99:      res.merged.Quantile(0.99),
	}

	if tc != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		if _, err := tc.WriteTo(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
	}
	return res, nil
}

// newStream builds one open-loop stream from the soak config.
func newStream(cfg soakConfig, seed uint64, rate float64, seqBase uint64) (*loadgen.Stream, error) {
	return loadgen.NewStream(loadgen.StreamConfig{
		Seed:        seed,
		Keys:        cfg.keys,
		Rate:        rate,
		Arrivals:    cfg.arrivals,
		BurstFactor: cfg.burstF,
		BurstLen:    cfg.burstLen,
		BurstGap:    cfg.burstGap,
		Tenants:     cfg.mix,
		Horizon:     cfg.duration,
		SeqBase:     seqBase,
	})
}

// report renders one soak run.
func report(out io.Writer, cfg soakConfig, res *soakResult) {
	mode := "sharded"
	if cfg.ringMode {
		mode = "ring"
	}
	fmt.Fprintf(out, "hoopd soak: scheme=%s seed=%d shards=%d rate=%.0f/s/shard duration=%v\n",
		cfg.common.Scheme, cfg.common.Seed, cfg.shards, cfg.rate, cfg.duration)
	fmt.Fprintf(out, "            route=%s arrivals=%v mix=%s keys=%d val=%dB policy=%v queue=%d\n\n",
		mode, cfg.arrivals, cfg.mixName, cfg.keys, cfg.val, cfg.policy, cfg.queue)
	fmt.Fprintf(out, "%-6s %9s %9s %7s %10s %10s %10s %10s %11s\n",
		"shard", "offered", "executed", "shed", "p50", "p99", "p999", "maxqdelay", "span")
	for j := 0; j < cfg.shards; j++ {
		h := res.sojourn[j]
		fmt.Fprintf(out, "%-6d %9d %9d %7d %10v %10v %10v %10v %11v\n",
			j, res.offered[j], res.executed[j], res.shed[j],
			h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999),
			res.maxDelay[j], res.span[j])
	}
	p := res.fleet
	fmt.Fprintf(out, "\nfleet: offered %d (%.0f/s), goodput %.0f/s, shed %d (%.1f%%)\n",
		p.Offered, float64(p.Offered)/p.Span.Seconds(), p.Goodput(), p.Shed, 100*p.ShedFrac())
	fmt.Fprintf(out, "sojourn (merged, arrival→completion): p50=%v p99=%v p999=%v max=%v\n",
		res.merged.Quantile(0.50), res.merged.Quantile(0.99), res.merged.Quantile(0.999), res.merged.Max())
}

// runSweep ramps offered load until goodput collapses and reports the
// saturation throughput.
func runSweep(out io.Writer, cfg soakConfig, factor float64, steps int) error {
	fmt.Fprintf(out, "hoopd saturation sweep: scheme=%s shards=%d start=%.0f/s/shard x%.2g, %d rungs max\n\n",
		cfg.common.Scheme, cfg.shards, cfg.rate, factor, steps)
	fmt.Fprintf(out, "%12s %10s %10s %10s %8s %10s\n",
		"rate/shard", "offered/s", "goodput/s", "p99", "shed%", "span")
	var runErr error
	res := loadgen.SaturationSweep(cfg.rate, factor, steps, func(rate float64) loadgen.SweepPoint {
		if runErr != nil {
			return loadgen.SweepPoint{}
		}
		c := cfg
		c.rate = rate
		r, err := runSoak(c, "")
		if err != nil {
			runErr = err
			return loadgen.SweepPoint{}
		}
		p := r.fleet
		fmt.Fprintf(out, "%12.0f %10.0f %10.0f %10v %7.1f%% %10v\n",
			rate, float64(p.Offered)/p.Span.Seconds(), p.Goodput(), p.P99, 100*p.ShedFrac(), p.Span)
		return p
	})
	if runErr != nil {
		return runErr
	}
	s := res.Saturation
	fmt.Fprintf(out, "\nsaturation throughput: %.0f req/s fleet goodput (offered %.0f/s/shard, p99=%v, shed %.1f%%)\n",
		s.Goodput(), s.Rate, s.P99, 100*s.ShedFrac())
	return nil
}
