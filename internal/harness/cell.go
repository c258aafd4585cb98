package harness

import (
	"fmt"
	"time"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/persist"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// Cell is one independent (scheme × workload) simulation job: every cell
// builds its own engine.System (own sim.Stats, mem.Store, PRNGs), so cells
// share no mutable state and can execute in any order — or concurrently —
// without changing a single measured number. Every figure and table of the
// evaluation decomposes into cells.
type Cell struct {
	Scheme   string
	Workload workload.Workload
	Txs      int
	Seed     uint64
	// Mut, when non-nil, adjusts the paper-default configuration before
	// the system is built (GC period sweeps, NVM latency sweeps, ...).
	Mut func(*engine.Config)
	// Policy, when set, drives the cell's transactions through a
	// cc.Runner under that concurrency-control policy instead of
	// System.Run; the workload must then come from
	// workload.Contention.Workload.
	Policy cc.Policy
	// Sink, when non-nil, is subscribed to the cell's telemetry hub for
	// telemetry.MaskTrace at the start of the measurement window. Each
	// cell owns its sink exclusively (one worker runs one cell), so sinks
	// need no locking even on a parallel pool.
	Sink telemetry.Sink
}

// mut returns the cell's effective config mutator: the caller's Mut, plus
// Config.Abortable forced on for workloads that inject aborts (YCSB-F's
// read-modify-write mix). Cache keys hash this effective config, so an
// abort-injecting workload can never alias a non-abortable cell.
func (c Cell) mut() func(*engine.Config) {
	if !c.Workload.NeedsAbort {
		return c.Mut
	}
	return func(cfg *engine.Config) {
		if c.Mut != nil {
			c.Mut(cfg)
		}
		cfg.Abortable = true
	}
}

// CellStats summarizes one worker-pool run over a batch of cells.
type CellStats struct {
	Cells   int
	Workers int
	// Wall is the elapsed wall-clock of the whole batch; CellSum is the
	// summed per-cell wall-clock (the serial-equivalent cost). Their ratio
	// is the multi-core speedup the pool achieved.
	Wall    time.Duration
	CellSum time.Duration
	MaxCell time.Duration
	// Cached counts cells whose results came from the on-disk cell cache
	// instead of executing (included in Cells, excluded from the timing
	// fields).
	Cached int
}

// Speedup reports CellSum / Wall — how much faster the batch ran than a
// strictly sequential execution of the same cells.
func (s CellStats) Speedup() float64 {
	if s.Wall <= 0 {
		return 1
	}
	return float64(s.CellSum) / float64(s.Wall)
}

func (s CellStats) String() string {
	avg := time.Duration(0)
	if run := s.Cells - s.Cached; run > 0 {
		avg = s.CellSum / time.Duration(run)
	}
	out := fmt.Sprintf("%d cells on %d workers: wall %.1fs, serial-equivalent %.1fs (%.1fx), avg cell %.2fs, max cell %.2fs",
		s.Cells, s.Workers, s.Wall.Seconds(), s.CellSum.Seconds(), s.Speedup(), avg.Seconds(), s.MaxCell.Seconds())
	if s.Cached > 0 {
		out += fmt.Sprintf(", %d cached", s.Cached)
	}
	return out
}

// buildSystem constructs a paper-default system with the given scheme,
// applying mut (which may be nil) before construction.
func buildSystem(scheme string, mut func(*engine.Config)) (*engine.System, error) {
	cfg := engine.DefaultConfig(scheme)
	if mut != nil {
		mut(&cfg)
	}
	return engine.New(cfg)
}

// phaseMask is what the per-cell counting sink subscribes to: the low-rate
// mechanism kinds plus commits. Per-op kinds stay off so the hot path keeps
// its single-branch guard.
var phaseMask = telemetry.MaskPhases | telemetry.MaskOf(telemetry.KindTxCommit)

// runCellSystem executes the cell's transactions on a fresh system and
// returns the measurement window and the system, which the caller
// releases (tests compare its durable image first).
func runCellSystem(c Cell) (Metrics, *engine.System, error) {
	sys, err := buildSystem(c.Scheme, c.mut())
	if err != nil {
		return Metrics{}, nil, err
	}
	if c.Policy == "" {
		runners := c.Workload.Runners(sys, c.Seed)
		return measureWindow(sys, c.Txs, c.Sink, func(txs int) { sys.Run(runners, txs) }), sys, nil
	}
	con, ok := workload.ContentionOf(c.Workload)
	if !ok {
		return Metrics{}, sys, fmt.Errorf("cc policy %s needs a contention workload", c.Policy)
	}
	r, err := cc.New(sys, cc.Config{Policy: c.Policy})
	if err != nil {
		return Metrics{}, sys, err
	}
	srcs := con.Sources(sys.Config().Threads, c.Seed)
	return measureWindow(sys, c.Txs, c.Sink, func(txs int) { r.Run(srcs, txs) }), sys, nil
}

// quiesceTicks bounds the Tick catch-up loop that lets epoch-driven
// background machinery observe the drained state.
const quiesceTicks = 64

// quiesce closes off in-flight work at a measurement boundary: still-cached
// dirty data is written back through the scheme, deferred background
// machinery (GC, consolidation, checkpointing) is drained through the
// scheme's persist.Quiescer hook, and the scheme ticks until idle.
func quiesce(sys *engine.System) {
	sys.DrainCache()
	if q, ok := sys.Scheme().(persist.Quiescer); ok {
		q.Quiesce(sys.MaxClock())
	}
	for i := 0; i < quiesceTicks; i++ {
		sys.Scheme().Tick(sys.MaxClock())
	}
}

// measureWindow runs txs transactions through drive (System.Run over
// workload runners, a cc.Runner, or replay cursors) inside a fairly closed
// steady-state window: setup dirt is quiesced first (without letting the
// quiesce burst backlog the window's first accesses), all threads enter at
// the same simulated instant, and the window is closed by charging every
// scheme for its still-cached dirty data and deferred migration traffic.
// Telemetry subscriptions happen after setup quiesces, so the phase
// breakdown and any trace cover exactly the measured window.
func measureWindow(sys *engine.System, txs int, sink telemetry.Sink, drive func(txs int)) Metrics {
	quiesce(sys)
	sys.ResetMemoryQueues()
	sys.SyncClocks()
	counts := &telemetry.CountingSink{}
	sys.Subscribe(counts, phaseMask)
	if sink != nil {
		sys.Subscribe(sink, telemetry.MaskTrace)
	}
	before := sys.Snapshot()
	histBefore := sys.LatencyHistogram()
	drive(txs)
	quiesce(sys)
	m := window(before, sys.Snapshot())
	m.Phases = counts.Counts()
	hist := sys.LatencyHistogram()
	m.Latency = hist.Since(histBefore)
	return m
}
