package service

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Policy selects what a full or late shard does with new requests.
type Policy int

const (
	// PolicyBlock applies backpressure in real time only: a full mailbox
	// blocks the producer, and every admitted request eventually executes.
	// Simulated arrival times ride in the requests, so the open-loop
	// schedule is unaffected.
	PolicyBlock Policy = iota
	// PolicyShed drops any request whose simulated queueing delay exceeds
	// Config.ShedDelay, accounting it like a tx_abort (offered but never
	// committed). The decision depends only on simulated time, so shedding
	// is deterministic.
	PolicyShed
)

// String names the policy for CLI output.
func (p Policy) String() string {
	if p == PolicyShed {
		return "shed"
	}
	return "block"
}

// Config describes a service fleet.
type Config struct {
	// Shards is the ring size: one engine.Shard per entry.
	Shards int
	// Seed is the run-wide seed; shard i derives engine.ShardSeed(Seed, i).
	Seed uint64
	// Engine is the per-shard engine configuration. Shards serve on one
	// thread; Threads must be 1 (each shard is its own simulated machine,
	// so cross-shard parallelism is real OS parallelism, not simulated
	// thread interleaving).
	Engine engine.Config
	// Handler builds shard i's request handler (one handler instance per
	// shard; it runs only on that shard's serving goroutine).
	Handler func(shard int) engine.ShardHandler
	// QueueDepth bounds each shard's mailbox (default 1024).
	QueueDepth int
	// Policy is the admission policy at the shard boundary.
	Policy Policy
	// ShedDelay is the queueing-delay bound for PolicyShed (required > 0
	// for that policy, ignored for PolicyBlock).
	ShedDelay sim.Duration
	// Trace, when non-nil, receives a "router" cell of ring_route events,
	// written only if the router routed a request, then one cell per shard
	// ("shard-NNN") with MaskTrace plus the shard admission kinds
	// (hoopd -trace). Shard i's cell is private to its serving goroutine,
	// so the stream is byte-identical however the shards were scheduled;
	// write it only after Quiesce or Close.
	Trace *telemetry.CellTrace
}

// Service is a fleet of shards behind a consistent-hash router. The
// router-side methods (Submit, SubmitTo, Quiesce, Close) are
// single-producer: one goroutine owns each shard's submission stream —
// Submit assumes one goroutine owns all of them.
type Service struct {
	cfg    Config
	ring   Ring
	shards []*engine.Shard
	tel    *telemetry.Hub // router hub: ring_route
	seq    uint64
}

// Open builds the fleet: N shard engines, handlers, and trace plumbing.
// No goroutine starts until Serve.
func Open(cfg Config) (*Service, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("service: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("service: Config.Handler is required")
	}
	if cfg.Engine.Threads != 1 {
		return nil, fmt.Errorf("service: shard engines serve on one thread, got Threads=%d", cfg.Engine.Threads)
	}
	if cfg.Policy == PolicyShed && cfg.ShedDelay <= 0 {
		return nil, fmt.Errorf("service: PolicyShed requires ShedDelay > 0")
	}
	s := &Service{
		cfg:  cfg,
		ring: NewRing(cfg.Shards),
		tel:  telemetry.NewHub(),
	}
	if cfg.Trace != nil {
		s.tel.Subscribe(cfg.Trace.AddOptional("router"), telemetry.MaskOf(telemetry.KindRingRoute))
	}
	shed := sim.Duration(0)
	if cfg.Policy == PolicyShed {
		shed = cfg.ShedDelay
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := engine.OpenShard(engine.ShardConfig{
			Index:      i,
			RunSeed:    cfg.Seed,
			Engine:     cfg.Engine,
			QueueDepth: cfg.QueueDepth,
			ShedDelay:  shed,
		}, cfg.Handler(i))
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		if cfg.Trace != nil {
			sh.System().Subscribe(cfg.Trace.Add(fmt.Sprintf("shard-%03d", i)),
				telemetry.MaskTrace|telemetry.MaskOf(telemetry.KindShardEnqueue, telemetry.KindShardShed))
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Serve starts every shard's serving goroutine (handlers run Setup first).
func (s *Service) Serve() {
	for _, sh := range s.shards {
		sh.Serve()
	}
}

// Shard exposes shard i (read its System between Quiesce and the next
// submission, or after Close).
func (s *Service) Shard(i int) *engine.Shard { return s.shards[i] }

// Submit routes one keyed request over the ring and enqueues it, blocking
// in real time while the target mailbox is full. It returns the chosen
// shard. The global sequence number is assigned here, in submission order.
func (s *Service) Submit(arrival sim.Time, kind uint8, key, aux uint64) int {
	shard := s.ring.Route(key)
	s.seq++
	if s.tel.Enabled(telemetry.KindRingRoute) {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.KindRingRoute,
			Time: arrival,
			Core: -1,
			Tx:   s.seq,
			Aux:  int64(shard),
		})
	}
	s.shards[shard].Enqueue(engine.ShardRequest{
		Arrival: arrival,
		Seq:     s.seq,
		Kind:    kind,
		Key:     key,
		Aux:     aux,
	})
	return shard
}

// SubmitTo enqueues req on shard directly, bypassing the ring — the soak
// path where each shard consumes its own derived open-loop stream. The
// caller owns req.Seq.
func (s *Service) SubmitTo(shard int, req engine.ShardRequest) {
	s.shards[shard].Enqueue(req)
}

// Quiesce blocks until every shard has drained its mailbox and closed off
// in-flight engine work; afterwards every shard's System is safe to read
// until the next submission.
func (s *Service) Quiesce() {
	for _, sh := range s.shards {
		sh.Quiesce()
	}
}

// Close stops every shard. Systems stay readable.
func (s *Service) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Executed and Shed total the per-shard counters. Same read discipline as
// Shard.Executed: call after Quiesce or Close.
func (s *Service) Executed() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Executed()
	}
	return n
}

// Shed totals requests dropped by admission control across the fleet.
func (s *Service) Shed() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Shed()
	}
	return n
}

// MergedSojourn folds every shard's arrival-to-completion distribution
// (queueing delay + service) into one fleet-wide histogram — the p50/p99/
// p999 a client of the fleet would observe.
func (s *Service) MergedSojourn() sim.Histogram {
	var out sim.Histogram
	for _, sh := range s.shards {
		h := sh.Sojourn()
		out.Merge(&h)
	}
	return out
}

// StreamSpan reports shard i's simulated serving span: its clock measured
// from its stream epoch, i.e. excluding setup/preload time. Same read
// discipline as Shard.Executed.
func (s *Service) StreamSpan(i int) sim.Duration {
	sh := s.shards[i]
	return sh.System().MaxClock() - sh.Epoch()
}

// MaxStreamSpan is the largest StreamSpan across the fleet — the
// denominator for fleet goodput.
func (s *Service) MaxStreamSpan() sim.Duration {
	var m sim.Duration
	for i := range s.shards {
		if d := s.StreamSpan(i); d > m {
			m = d
		}
	}
	return m
}
