package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// need no locking even under parallel RunCells.
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

// RunCells executes every cell on a bounded worker pool and returns the
// per-cell metrics in input order. workers < 1 means runtime.GOMAXPROCS.
// Because cells are fully independent and seeded individually, the results
// are bit-identical for every worker count; only wall-clock changes.
func RunCells(cells []Cell, workers int) ([]Metrics, CellStats, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	stats := CellStats{Cells: len(cells), Workers: workers}
	if len(cells) == 0 {
		return nil, stats, nil
	}
	start := time.Now()
	results := make([]Metrics, len(cells))
	walls := make([]time.Duration, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				cellStart := time.Now()
				results[i], errs[i] = runCell(cells[i])
				walls[i] = time.Since(cellStart)
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	for i, d := range walls {
		stats.CellSum += d
		if d > stats.MaxCell {
			stats.MaxCell = d
		}
		if errs[i] != nil {
			return nil, stats, fmt.Errorf("harness: %s on %s: %w", cells[i].Workload.Name, cells[i].Scheme, errs[i])
		}
	}
	return results, stats, nil
}

// runCellsCached is RunCells behind the run's cell cache: cells whose
// full inputs (cellKey) are memoized skip execution, the rest run on the
// worker pool and are stored afterwards. Every non-matrix section
// (TableIV, the GC/latency/map-size sweeps, ablation) and the direct
// matrix run through here. Results are byte-identical with and without
// the cache.
func runCellsCached(cells []Cell, opts Options) ([]Metrics, CellStats, error) {
	return runCellsMemo(cells, opts, func(miss []int) ([]Metrics, CellStats, error) {
		return RunCells(pick(cells, miss), opts.workers())
	})
}

// runCellsMemo serves cells from the cache and hands the indices of the
// misses to exec, which runs them and reports its pool stats. The
// returned stats count every cell, cached ones included.
func runCellsMemo(cells []Cell, opts Options, exec func(miss []int) ([]Metrics, CellStats, error)) ([]Metrics, CellStats, error) {
	cache, err := opts.ensureCache()
	if err != nil {
		return nil, CellStats{}, err
	}
	var stats CellStats
	mets, cached, err := cachedBatch(cache, kindCell, len(cells), func(i int) string { return cellKey(cells[i]) },
		func(miss []int) ([]Metrics, error) {
			res, s, err := exec(miss)
			stats = s
			return res, err
		})
	if err != nil {
		return nil, stats, err
	}
	stats.Cells, stats.Cached = len(cells), cached
	if stats.Workers == 0 {
		stats.Workers = opts.workers()
	}
	return mets, stats, nil
}

// pick returns xs[idx[0]], xs[idx[1]], ...
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = xs[i]
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

// runCell executes the cell's transactions on a fresh system and returns
// the measurement window. The system is released when the cell ends, so
// the next cell reuses its cache tag arrays.
func runCell(c Cell) (Metrics, error) {
	m, sys, err := runCellSystem(c)
	if sys != nil {
		sys.Release()
	}
	return m, err
}

// runCellSystem is runCell without the release: it also returns the
// system, so tests can compare durable images.
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
