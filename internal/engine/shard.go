package engine

import (
	"fmt"
	"sync"

	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// Shard wraps one System behind a request mailbox and an explicit
// lifecycle: one goroutine, one engine, one persist-scheme instance per
// shard. Shards are the composable unit the service tier scales out —
// because each shard's engine is fully self-contained (own sim.Stats,
// mem.Store, PRNGs; the same isolation the harness cell pool relies on), a
// fleet of shards executes on real OS threads while every shard's
// simulated run stays bit-identical to a serial execution of the same
// request sequence.
//
// Lifecycle: Open (build the engine) → Serve (start the mailbox
// goroutine) → Enqueue… → Quiesce (drain; repeatable) → Close (stop).
// Enqueue is single-producer: one router goroutine feeds one shard.
// Between a Quiesce and the next Enqueue the serving goroutine is parked
// on the mailbox, so the owner may read the shard's System directly
// (Snapshot, state digests); the Quiesce reply establishes the
// happens-before edge.

// ShardRequest is one mailbox entry: a service-defined operation with its
// open-loop arrival time. The struct is deliberately flat (no closures) so
// a soak's request stream costs no allocations beyond the channel buffer.
type ShardRequest struct {
	// Arrival is the request's open-loop arrival time, relative to the
	// shard's stream epoch (the instant Setup finished, so load schedules
	// start at zero regardless of how long preloading took). The shard
	// advances its clock to at least epoch+Arrival before executing; if
	// it is running behind, the difference is the simulated queueing
	// delay.
	Arrival sim.Time
	// Seq is the router's global sequence number (tracing/debugging).
	Seq uint64
	// Kind is a service-defined opcode.
	Kind uint8
	// Key and Aux are service-defined operands (key, value seed, ...).
	Key uint64
	Aux uint64
}

// ShardHandler executes requests against a shard's engine. Both methods
// run on the shard's serving goroutine, so a handler needs no locking for
// per-shard state.
type ShardHandler interface {
	// Setup runs once, before any request, inside the serving goroutine:
	// format arenas, preload data. region is the shard engine's home
	// region and seed the shard's derived seed.
	Setup(env *Env, region mem.Region, shard int, seed uint64)
	// Handle executes one admitted request. The env clock has already been
	// advanced to at least req.Arrival.
	Handle(env *Env, req ShardRequest)
}

// ShardConfig describes one shard of a run.
type ShardConfig struct {
	// Index is the shard's position on the ring.
	Index int
	// RunSeed is the run-wide seed; the shard derives its own seed as
	// ShardSeed(RunSeed, Index) — a rule that depends only on the pair, so
	// shard i of a run is deterministic regardless of how many other
	// shards exist.
	RunSeed uint64
	// Engine is the shard's engine configuration (one serving thread).
	Engine Config
	// QueueDepth bounds the mailbox (default 1024). A full mailbox blocks
	// the producer in real time only; simulated arrival times are carried
	// by the requests, so the open-loop schedule is unaffected.
	QueueDepth int
	// ShedDelay, when positive, sheds any request whose simulated queueing
	// delay exceeds it instead of executing (admission control at the
	// shard boundary). The decision depends only on simulated time, so
	// shedding is deterministic. Zero means never shed (block policy).
	ShedDelay sim.Duration
}

// ShardSeed derives shard index's seed from the run seed (splitmix64-style
// mix). The derivation uses only (runSeed, index) — never the shard count —
// so a shard's setup PRNG stream is identical whether it is one of 1 or one
// of 64.
func ShardSeed(runSeed uint64, index int) uint64 {
	z := runSeed + 0x9E3779B97F4A7C15*uint64(index+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// shard lifecycle states.
const (
	shardOpen = iota
	shardServing
	shardClosed
)

// mailbox control opcodes (requests with ctl != ctlRequest carry no
// service payload).
const (
	ctlRequest = iota
	ctlQuiesce
)

type shardMsg struct {
	req  ShardRequest
	ctl  int
	done chan struct{} // reply for ctlQuiesce
}

// Shard is one service shard. Not safe for concurrent producers: the
// router owns Enqueue/Quiesce/Close.
type Shard struct {
	sys     *System
	handler ShardHandler
	index   int
	seed    uint64
	shed    sim.Duration

	mbox  chan shardMsg
	wg    sync.WaitGroup
	state int

	// Serving-goroutine-private accounting (readable after Quiesce).
	epoch    sim.Time // stream epoch: clock when Setup finished
	executed int64
	shedded  int64
	sojourn  sim.Histogram // arrival → completion, includes queueing delay
	maxDelay sim.Duration
}

// OpenShard builds the shard's engine. The handler's Setup runs when Serve
// starts, inside the serving goroutine.
func OpenShard(cfg ShardConfig, handler ShardHandler) (*Shard, error) {
	if handler == nil {
		return nil, fmt.Errorf("engine: shard %d needs a handler", cfg.Index)
	}
	sys, err := New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", cfg.Index, err)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	return &Shard{
		sys:     sys,
		handler: handler,
		index:   cfg.Index,
		seed:    ShardSeed(cfg.RunSeed, cfg.Index),
		shed:    cfg.ShedDelay,
		mbox:    make(chan shardMsg, depth),
		state:   shardOpen,
	}, nil
}

// System exposes the shard's engine. Safe to read between Quiesce and the
// next Enqueue, or after Close.
func (s *Shard) System() *System { return s.sys }

// Serve starts the serving goroutine: Setup first, then requests in FIFO
// order until Close.
func (s *Shard) Serve() {
	if s.state != shardOpen {
		panic(fmt.Sprintf("engine: Serve on shard %d in state %d", s.index, s.state))
	}
	s.state = shardServing
	s.wg.Add(1)
	go s.serve()
}

func (s *Shard) serve() {
	defer s.wg.Done()
	env := s.sys.NewEnv(0)
	s.handler.Setup(env, s.sys.Layout().Home, s.index, s.seed)
	s.epoch = env.Now()
	tel := s.sys.Telemetry()
	for msg := range s.mbox {
		if msg.ctl == ctlQuiesce {
			s.drain()
			close(msg.done)
			continue
		}
		req := msg.req
		arrival := s.epoch + req.Arrival
		delay := env.Now() - arrival // >0 means the request waited
		if delay < 0 {
			delay = 0
		}
		if delay > s.maxDelay {
			s.maxDelay = delay
		}
		if s.shed > 0 && delay > s.shed {
			s.shedded++
			if tel.Enabled(telemetry.KindShardShed) {
				tel.Emit(telemetry.Event{
					Kind: telemetry.KindShardShed,
					Time: arrival,
					Core: 0,
					Tx:   req.Seq,
					Aux:  int64(delay),
				})
			}
			continue
		}
		if tel.Enabled(telemetry.KindShardEnqueue) {
			tel.Emit(telemetry.Event{
				Kind: telemetry.KindShardEnqueue,
				Time: arrival,
				Core: 0,
				Tx:   req.Seq,
				Aux:  int64(delay),
			})
		}
		env.AdvanceTo(arrival)
		s.handler.Handle(env, req)
		s.executed++
		s.sojourn.Observe(env.Now() - arrival)
	}
}

// shardQuiesceTicks bounds the Tick catch-up loop that lets epoch-driven
// background machinery observe the drained state (mirrors the harness's
// measurement-boundary quiesce).
const shardQuiesceTicks = 64

// drain closes off in-flight engine work on the serving goroutine: dirty
// cached lines write back through the scheme and deferred background
// machinery (GC, consolidation, checkpointing) runs to completion, so a
// snapshot taken after Quiesce charges every scheme its full traffic.
func (s *Shard) drain() {
	s.sys.DrainCache()
	if q, ok := s.sys.Scheme().(persist.Quiescer); ok {
		q.Quiesce(s.sys.MaxClock())
	}
	for i := 0; i < shardQuiesceTicks; i++ {
		s.sys.Scheme().Tick(s.sys.MaxClock())
	}
}

// Enqueue submits one request. It blocks while the mailbox is full (real-
// time backpressure on the producer; the simulated schedule rides in
// req.Arrival). Requests execute in enqueue order.
func (s *Shard) Enqueue(req ShardRequest) {
	if s.state != shardServing {
		panic(fmt.Sprintf("engine: Enqueue on shard %d while not serving", s.index))
	}
	s.mbox <- shardMsg{req: req, ctl: ctlRequest}
}

// Quiesce blocks until every previously enqueued request has executed.
// The shard keeps serving afterwards; Quiesce is the synchronization point
// that makes System/Sojourn/Executed safe to read.
func (s *Shard) Quiesce() {
	if s.state != shardServing {
		panic(fmt.Sprintf("engine: Quiesce on shard %d while not serving", s.index))
	}
	done := make(chan struct{})
	s.mbox <- shardMsg{ctl: ctlQuiesce, done: done}
	<-done
}

// Close drains the mailbox and stops the serving goroutine. The shard's
// System stays readable (final snapshots, recovery experiments).
func (s *Shard) Close() {
	switch s.state {
	case shardClosed:
		return
	case shardOpen:
		s.state = shardClosed
		return
	}
	close(s.mbox)
	s.wg.Wait()
	s.state = shardClosed
}

// Executed reports requests handled; Shed reports requests dropped by
// admission control. Read between Quiesce and the next Enqueue, or after
// Close.
func (s *Shard) Executed() int64 { return s.executed }
func (s *Shard) Shed() int64     { return s.shedded }

// Epoch reports the shard's stream epoch — the simulated instant Setup
// finished, from which request arrival times are offset. Same read
// discipline as Executed.
func (s *Shard) Epoch() sim.Time { return s.epoch }

// Sojourn returns a copy of the arrival-to-completion latency distribution
// (queueing delay plus execution). Same read discipline as Executed.
func (s *Shard) Sojourn() sim.Histogram { return s.sojourn }

// MaxQueueDelay reports the largest simulated queueing delay any request
// saw at admission. Same read discipline as Executed.
func (s *Shard) MaxQueueDelay() sim.Duration { return s.maxDelay }
