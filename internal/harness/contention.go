package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// Contention-figure geometry: every cell runs the shared-pool Zipfian
// read-modify-write workload (workload.Contention) through the cc layer,
// so transactions genuinely conflict and the policy (OCC validation or
// wound-wait locking) arbitrates. The sweep crosses Zipfian skew with
// thread count for every scheme under both policies: skew concentrates
// traffic on fewer lines, threads add requesters per line, and the abort
// path's durable cost — HOOP drops SRAM slices for free while undo logging
// replays images home — separates the schemes.
var (
	contentionThetas  = []float64{0.5, 0.9, 1.2}
	contentionThreads = []int{2, 4, 8}
)

const (
	contentionKeys     = 256 // shared pool words
	contentionOpsPerTx = 4   // read-modify-write pairs per transaction
)

// contentionTxs reports committed transactions per contention cell.
func contentionTxs(o Options) int {
	if o.Quick {
		return 800
	}
	return 6000
}

// contentionCell is one (scheme × policy × theta × threads) job. Like
// Cell, each builds a private system, so cells run in any order or
// concurrently with bit-identical results.
type contentionCell struct {
	scheme  string
	policy  cc.Policy
	theta   float64
	threads int
	txs     int
	seed    uint64
	// sink, when non-nil, records the measurement window's telemetry
	// (Options.Trace); like Cell.Sink it belongs to this cell alone.
	sink telemetry.Sink
}

// mut sizes the paper-default config for the cell's thread count and
// makes it abortable.
func (c contentionCell) mut(cfg *engine.Config) {
	cfg.Threads = c.threads
	if c.threads > cfg.Cores {
		cfg.Cores = c.threads
	}
	cfg.Abortable = true
}

// runContentionCell executes one contention cell and returns its window.
func runContentionCell(c contentionCell) (Metrics, error) {
	sys, err := buildSystem(c.scheme, c.mut)
	if err != nil {
		return Metrics{}, err
	}
	r, err := cc.New(sys, cc.Config{Policy: c.policy})
	if err != nil {
		return Metrics{}, err
	}
	srcs := workload.Contention{
		Keys:     contentionKeys,
		OpsPerTx: contentionOpsPerTx,
		Theta:    c.theta,
	}.Sources(c.threads, c.seed)
	quiesce(sys)
	sys.ResetMemoryQueues()
	sys.SyncClocks()
	if c.sink != nil {
		sys.Subscribe(c.sink, telemetry.MaskTrace)
	}
	before := takeSnapshot(sys)
	r.Run(srcs, c.txs)
	quiesce(sys)
	return window(before, takeSnapshot(sys)), nil
}

// runContentionCells executes the cells on a bounded worker pool,
// returning metrics in input order (the same pool discipline as RunCells:
// seeded, independent cells make results worker-count-invariant).
func runContentionCells(cells []contentionCell, workers int) ([]Metrics, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]Metrics, len(cells))
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
				results[i], errs[i] = runContentionCell(cells[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c := cells[i]
			return nil, fmt.Errorf("harness: contention %s/%s theta=%.1f threads=%d: %w",
				c.scheme, c.policy, c.theta, c.threads, err)
		}
	}
	return results, nil
}

// runContentionCellsCached is runContentionCells behind the run's cell
// cache: memoized cells skip execution, misses run on the normal pool and
// are stored afterwards. The key covers the effective engine config plus
// the cc policy and workload geometry. Results are byte-identical with
// and without the cache.
func runContentionCellsCached(cells []contentionCell, opts Options) ([]Metrics, error) {
	cache, err := opts.ensureCache()
	if err != nil {
		return nil, err
	}
	key := func(i int) string {
		c := cells[i]
		return cacheKey(kindContention, c.scheme, c.mut, fmt.Sprintf("policy=%s\ntheta=%g\nkeys=%d\nopspertx=%d\ntxs=%d\nseed=%d",
			c.policy, c.theta, contentionKeys, contentionOpsPerTx, c.txs, c.seed))
	}
	mets, _, err := cachedBatch(cache, kindContention, len(cells), key, func(miss []int) ([]Metrics, error) {
		return runContentionCells(pick(cells, miss), opts.workers())
	})
	return mets, err
}

// contentionColName renders one sweep point.
func contentionColName(theta float64, threads int) string {
	return fmt.Sprintf("z%.1f/t%d", theta, threads)
}

// ContentionFigure sweeps Zipfian skew × thread count for every scheme
// under both concurrency-control policies and returns the throughput grid
// (Ktx/s) and the abort-rate grid (% of transaction attempts aborted).
func ContentionFigure(opts Options) (*Grid, *Grid, error) {
	var rows []string
	var cells []contentionCell
	txs := contentionTxs(opts)
	for _, scheme := range engine.AllSchemes {
		for _, pol := range cc.Policies {
			rows = append(rows, scheme+"/"+string(pol))
			for _, theta := range contentionThetas {
				for _, n := range contentionThreads {
					c := contentionCell{
						scheme:  scheme,
						policy:  pol,
						theta:   theta,
						threads: n,
						txs:     txs,
						seed:    opts.Seed,
					}
					if opts.Trace != nil {
						c.sink = opts.Trace.Add(fmt.Sprintf("contention/%s/%s/%s", scheme, pol, contentionColName(theta, n)))
					}
					cells = append(cells, c)
				}
			}
		}
	}
	metrics, err := runContentionCellsCached(cells, opts)
	if err != nil {
		return nil, nil, err
	}
	var cols []string
	for _, theta := range contentionThetas {
		for _, n := range contentionThreads {
			cols = append(cols, contentionColName(theta, n))
		}
	}
	tput := &Grid{
		Title:   "Contention sweep: throughput (Ktx/s) vs Zipfian theta (z) and threads (t)",
		RowName: "Scheme/Policy",
		Rows:    rows,
		Cols:    cols,
		Format:  "%.1f",
	}
	aborts := &Grid{
		Title:   "Contention sweep: abort rate (% of tx attempts) vs Zipfian theta (z) and threads (t)",
		RowName: "Scheme/Policy",
		Rows:    rows,
		Cols:    cols,
		Format:  "%.2f",
	}
	k := 0
	for range rows {
		tr := make([]float64, len(cols))
		ar := make([]float64, len(cols))
		for j := range cols {
			m := metrics[k]
			k++
			tr[j] = m.Throughput() / 1e3
			ar[j] = m.AbortRate() * 100
		}
		tput.Cells = append(tput.Cells, tr)
		aborts.Cells = append(aborts.Cells, ar)
	}
	return tput, aborts, nil
}
