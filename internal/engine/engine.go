// Package engine assembles the full simulated system — cores, cache
// hierarchy, memory controller, NVM device, and one persistence scheme —
// and executes transactional workloads against it. It is the reproduction
// of the paper's McSimA+ + NVM-simulator platform at operation-level
// timing fidelity.
//
// The engine is deterministic: workload threads are interleaved by always
// running the thread with the smallest simulated clock, shared-resource
// contention (NVM banks, channel bandwidth, GC interference) is resolved
// through reservation times, and all randomness comes from seeded PRNGs.
package engine

import (
	"fmt"

	"hoop/internal/cache"
	"hoop/internal/hoop"
	"hoop/internal/mem"
	"hoop/internal/memctrl"
	"hoop/internal/nvm"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"

	// The built-in schemes register themselves with the persist registry
	// from init(); the engine holds no per-scheme construction code. hoop
	// and lsm are imported above for their Config types.
	"hoop/internal/baseline/lad"
	"hoop/internal/baseline/lsm"
	"hoop/internal/baseline/native"
	"hoop/internal/baseline/osp"
	"hoop/internal/baseline/redo"
	"hoop/internal/baseline/undo"
)

// Scheme names accepted by Config.Scheme, matching the paper's figures.
const (
	SchemeHOOP   = hoop.SchemeName
	SchemeRedo   = redo.SchemeName
	SchemeUndo   = undo.SchemeName
	SchemeOSP    = osp.SchemeName
	SchemeLSM    = lsm.SchemeName
	SchemeLAD    = lad.SchemeName
	SchemeNative = native.SchemeName
)

// AllSchemes lists every scheme in the order the paper's figures use.
var AllSchemes = []string{SchemeRedo, SchemeUndo, SchemeOSP, SchemeLSM, SchemeLAD, SchemeHOOP, SchemeNative}

// CPUFreq is the simulated core frequency (Table II).
const CPUFreq = 2_500_000_000

// Config describes one simulated system.
type Config struct {
	Cores   int
	Threads int
	Scheme  string

	Cache cache.Config
	NVM   nvm.Params
	Ctrl  memctrl.Config

	// OOPBytes sizes the OOP/log region; zero means 10% of capacity
	// (§III-H).
	OOPBytes uint64

	Hoop hoop.Config
	LSM  lsm.Config

	// SchemeOpts carries construction options for registered schemes
	// beyond the typed Hoop/LSM fields above, keyed by scheme name. An
	// entry for a built-in scheme's name overrides the typed field.
	SchemeOpts map[string]any

	// TrackOracle records committed writes into a shadow store so crash
	// tests can verify recovery; costs memory, off by default.
	TrackOracle bool

	// Abortable enables Env.TxAbort by capturing a pre-image of every
	// transactional write into a per-thread arena so an abort can roll the
	// volatile view back. The capture is one View.Read per store (no
	// steady-state allocation), but it is off by default so the conflict-
	// free configurations keep their locked hot-path budgets; the
	// concurrency-control layer (internal/cc) turns it on.
	Abortable bool

	// OpCost is the computation time charged per load/store operation for
	// the non-memory instructions surrounding it (hashing, comparisons,
	// pointer arithmetic, function calls). The paper's McSimA+ platform
	// simulates the full instruction stream; this constant stands in for
	// it at operation granularity.
	OpCost sim.Duration
}

// DefaultConfig returns the paper's Table II system running workload with
// eight threads (§IV-A).
func DefaultConfig(scheme string) Config {
	const cores = 16
	return Config{
		Cores:   cores,
		Threads: 8,
		Scheme:  scheme,
		Cache:   cache.DefaultConfig(cores),
		NVM:     nvm.DefaultParams(),
		Ctrl:    memctrl.DefaultConfig(cores + 2), // cores + GC + checkpoint agents
		Hoop:    hoop.DefaultConfig(),
		LSM:     lsm.DefaultConfig(),
		OpCost:  25 * sim.Nanosecond,
	}
}

// schemeOpt resolves the construction options handed to persist.Build for
// the configured scheme: the typed Hoop/LSM fields, overridable (and
// extensible for out-of-tree schemes) through SchemeOpts.
func (c Config) schemeOpt() any {
	if opt, ok := c.SchemeOpts[c.Scheme]; ok {
		return opt
	}
	switch c.Scheme {
	case SchemeHOOP:
		return c.Hoop
	case SchemeLSM:
		return c.LSM
	}
	return nil
}

// writeRec is one committed-oracle record.
type writeRec struct {
	addr mem.PAddr
	data []byte
}

// undoLog is one thread's pre-image capture for Config.Abortable: a flat
// byte arena plus span records, both reused across transactions so the
// capture path performs no steady-state allocation.
type undoLog struct {
	buf   []byte
	spans []undoSpan
}

// undoSpan locates one pre-image inside the arena.
type undoSpan struct {
	addr mem.PAddr
	off  int
	n    int
}

// reset rewinds the log for a new transaction, keeping capacity.
func (u *undoLog) reset() {
	u.buf = u.buf[:0]
	u.spans = u.spans[:0]
}

// System is one fully wired simulated machine.
type System struct {
	cfg    Config
	stats  *sim.Stats
	store  *mem.Store
	view   *mem.Store
	oracle *mem.Store
	layout mem.Layout
	dev    *nvm.Device
	ctrl   *memctrl.Controller
	hier   *cache.Hierarchy
	scheme persist.Scheme
	hook   persist.LoadHook
	tel    *telemetry.Hub

	clocks   []*sim.Clock
	txID     []persist.TxID
	txOpen   []bool
	txBegan  []sim.Time
	txWrites [][]writeRec
	undo     []undoLog

	// Interned counter handles for the per-operation stats (one fires per
	// load/store issued by workload code).
	statTxLoads   *sim.Counter
	statTxStores  *sim.Counter
	statScanOps   *sim.Counter
	statScanItems *sim.Counter

	txLatSum  sim.Duration
	txLatHist sim.Histogram
	txCount   int64
	txAborts  int64
	loadOps   int64
	storeOps  int64
	crashed   bool
	// detached is set by Detach: Env operations then skip all timing
	// work (see Detach).
	detached bool
}

// New builds a system for cfg.
func New(cfg Config) (*System, error) {
	if cfg.Threads < 1 || cfg.Threads > cfg.Cores {
		return nil, fmt.Errorf("engine: threads must be in [1, cores=%d], got %d", cfg.Cores, cfg.Threads)
	}
	if cfg.Cache.Cores < cfg.Cores {
		return nil, fmt.Errorf("engine: cache sized for %d cores, system has %d", cfg.Cache.Cores, cfg.Cores)
	}
	if cfg.Ctrl.Agents < cfg.Cores+2 {
		return nil, fmt.Errorf("engine: memory controller tracks %d agents, %d cores need %d (cores + GC + checkpoint agents)", cfg.Ctrl.Agents, cfg.Cores, cfg.Cores+2)
	}
	if cfg.NVM.Capacity > uint64(mem.MaxAddr) {
		return nil, fmt.Errorf("engine: capacity %d exceeds the %d-bit simulated address space", cfg.NVM.Capacity, mem.AddrBits)
	}
	stats := sim.NewStats()
	store := mem.NewStore()
	oop := cfg.OOPBytes
	if oop == 0 {
		oop = cfg.NVM.Capacity / 10
	}
	if oop >= cfg.NVM.Capacity {
		return nil, fmt.Errorf("engine: OOP region (%d) must be smaller than capacity (%d)", oop, cfg.NVM.Capacity)
	}
	home := (cfg.NVM.Capacity - oop) &^ uint64(mem.LineSize-1)
	layout := mem.Layout{
		Home: mem.Region{Base: 0, Size: home},
		OOP:  mem.Region{Base: mem.PAddr(home), Size: oop &^ uint64(mem.LineSize-1)},
	}
	dev := nvm.NewDevice(cfg.NVM, store, stats)
	ctrl := memctrl.New(cfg.Ctrl, dev)
	hier := cache.New(cfg.Cache, stats)
	view := mem.NewStore()
	tel := telemetry.NewHub()
	dev.AttachTelemetry(tel)
	ctrl.AttachTelemetry(tel)
	hier.AttachTelemetry(tel)
	ctx := persist.Context{
		Cores:  cfg.Cores,
		Layout: layout,
		Dev:    dev,
		Ctrl:   ctrl,
		Hier:   hier,
		Stats:  stats,
		View:   view,
		Tel:    tel,
	}
	scheme, err := persist.Build(ctx, cfg.Scheme, cfg.schemeOpt())
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s := &System{
		cfg:      cfg,
		stats:    stats,
		store:    store,
		view:     view,
		layout:   layout,
		dev:      dev,
		ctrl:     ctrl,
		hier:     hier,
		scheme:   scheme,
		tel:      tel,
		clocks:   make([]*sim.Clock, cfg.Threads),
		txID:     make([]persist.TxID, cfg.Threads),
		txOpen:   make([]bool, cfg.Threads),
		txBegan:  make([]sim.Time, cfg.Threads),
		txWrites: make([][]writeRec, cfg.Threads),

		statTxLoads:   stats.Counter(sim.StatTxLoads),
		statTxStores:  stats.Counter(sim.StatTxStores),
		statScanOps:   stats.Counter(sim.StatScanOps),
		statScanItems: stats.Counter(sim.StatScanItems),
	}
	if cfg.TrackOracle {
		s.oracle = mem.NewStore()
	}
	if cfg.Abortable {
		s.undo = make([]undoLog, cfg.Threads)
	}
	if h, ok := scheme.(persist.LoadHook); ok {
		s.hook = h
	}
	for i := range s.clocks {
		s.clocks[i] = sim.NewClock(CPUFreq)
	}
	return s, nil
}

// Detach switches the system, for good, to functional-only execution.
// Afterwards Env operations skip the clocks, the cache hierarchy, the
// persistence scheme and the stats: they still read and update the
// functional view, still keep the pre-images TxAbort rolls back, and still
// emit their per-op events, so a trace recorder sees the same op stream a
// fully simulated run would issue. A capture calls it once its
// measurement window closes, to record padding transactions without
// simulating them. Every simulated number is frozen at its value when
// Detach was called; Run and Snapshot panic on a detached system.
func (s *System) Detach() { s.detached = true }

// Release returns the system's cache tag arrays for reuse by the next
// system built, so a harness that runs many systems one after another
// does not allocate a fresh hierarchy for each. The system must not be
// used again.
func (s *System) Release() { s.hier.Release() }

// Accessors used by the harness and tests.

// Config reports the system configuration.
func (s *System) Config() Config { return s.cfg }

// Scheme exposes the persistence scheme. Scheme-specific machinery (GC,
// consolidation, recovery scanning) is reached through the optional
// capability interfaces in package persist — Quiescer, GCReporter,
// RecoveryScanner — never by asserting on a concrete scheme type.
func (s *System) Scheme() persist.Scheme { return s.scheme }

// Device exposes the NVM device (energy, wear, sensitivity knobs).
func (s *System) Device() *nvm.Device { return s.dev }

// Layout reports the home/OOP split.
func (s *System) Layout() mem.Layout { return s.layout }

// Durable exposes the NVM contents (for recovery verification).
func (s *System) Durable() *mem.Store { return s.store }

// View exposes the volatile logical memory image.
func (s *System) View() *mem.Store { return s.view }

// Clock reports thread t's current simulated time.
func (s *System) Clock(t int) sim.Time { return s.clocks[t].Now() }

// MaxClock reports the latest thread clock (the wall-clock span of the run).
func (s *System) MaxClock() sim.Time {
	var m sim.Time
	for _, c := range s.clocks {
		m = sim.MaxTime(m, c.Now())
	}
	return m
}

// LatencyHistogram returns a copy of the transaction critical-path latency
// distribution (log-bucketed). Copies from independent systems merge with
// sim.Histogram.Merge — the service tier folds per-shard histograms into
// fleet-wide p50/p99/p999.
func (s *System) LatencyHistogram() sim.Histogram { return s.txLatHist }

// Telemetry exposes the system's event hub. Components inside the system
// emit through it; consumers normally subscribe via Subscribe.
func (s *System) Telemetry() *telemetry.Hub { return s.tel }

// Subscribe attaches sink to the system's telemetry hub for the kinds in
// mask. There is no unsubscribe: sinks live as long as the system, and
// the run-shaped consumers (trace recorders, counting sinks) want exactly
// that.
func (s *System) Subscribe(sink telemetry.Sink, mask telemetry.Mask) {
	s.tel.Subscribe(sink, mask)
}
