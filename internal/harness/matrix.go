package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// Matrix holds the shared (workload × scheme) measurement that Figures 7a,
// 7b, 8 and 9 are all computed from — in the paper these come from the same
// simulation runs.
type Matrix struct {
	Workloads []string
	Schemes   []string
	Cells     map[string]map[string]Metrics // workload -> scheme -> metrics
	// Stats describes the worker-pool execution of the matrix (wall-clock,
	// not simulated time).
	Stats CellStats
	// Captures is how many workload captures serve the matrix's cells
	// under the replay pipeline (one per workload column); CapturesRun is
	// how many of them actually executed this run — only columns with a
	// cell the cache could not serve capture. Both zero under DirectMatrix.
	Captures    int
	CapturesRun int
}

// RunMatrix measures every paper workload on every scheme, or the suite
// the caller selected via opts.Suite.
func RunMatrix(opts Options) (*Matrix, error) {
	suite := opts.Suite
	if len(suite) == 0 {
		suite = workload.PaperSuite(opts.WL)
	}
	return RunMatrixOn(opts, suite, engine.AllSchemes)
}

// RunMatrixOn measures the given workloads on the given schemes, executing
// the independent cells on opts.Workers workers. Each cell is looked up
// in the cell cache first (opts.CacheDir). Among the misses, each
// workload column executes once — its first missing cell runs with a
// recorder subscribed — and the column's other missing cells replay that
// in-memory capture (see replay.go), all on one worker pool
// (captureAndReplay). opts.DirectMatrix runs every missing cell by direct
// execution instead. Direct, capture, and replay cells share one cache
// key because they are bit-identical, at every worker count.
func RunMatrixOn(opts Options, workloads []workload.Workload, schemes []string) (*Matrix, error) {
	return runMatrix(opts, "matrix", workloads, schemes)
}

// runMatrix is RunMatrixOn for the named section, which labels the
// matrix's cells in opts.Trace.
func runMatrix(opts Options, section string, workloads []workload.Workload, schemes []string) (*Matrix, error) {
	var cells []Cell
	for _, w := range workloads {
		for _, s := range schemes {
			cells = append(cells, Cell{Scheme: s, Workload: w, Txs: opts.txPerCell(), Seed: opts.Seed + 1})
		}
	}
	opts.attachTrace(section, cells)
	if opts.DirectMatrix || len(cells) == 0 {
		mets, stats, err := runCellsCached(cells, opts)
		if err != nil {
			return nil, err
		}
		return assembleMatrix(cells, mets, stats, schemes), nil
	}
	capturesRun := 0
	mets, stats, err := runCellsMemo(cells, opts, func(miss []int) ([]Metrics, CellStats, error) {
		res, stats, n, err := captureAndReplay(cells, miss, len(schemes), opts.workers())
		capturesRun = n
		return res, stats, err
	})
	if err != nil {
		return nil, err
	}
	m := assembleMatrix(cells, mets, stats, schemes)
	m.Captures, m.CapturesRun = len(workloads), capturesRun
	return m, nil
}

// matrixTask is one cell of a captureAndReplay pool: k indexes miss, and
// col is the column a replay cell replays (nil for a capture).
type matrixTask struct {
	k   int
	col *workload.Captured
}

// captureAndReplay runs the matrix cells at the indices in miss
// (workload-major, ns schemes per column) as the record-once/replay-many
// pipeline on one pool of workers: each column's first missing cell runs
// as a capture, and the column's other missing cells replay it. No stage
// barrier stands between the two. The ready queue holds the captures
// first, in column order; when a capture finishes, its column's replays
// join the queue behind any pending capture, heaviest column first. Each
// replay task carries its column, so a column is freed once its last
// replay ends. The first error stops further dispatch. Returns the results
// in miss order, the pool stats, and the number of captures run.
func captureAndReplay(cells []Cell, miss []int, ns, workers int) ([]Metrics, CellStats, int, error) {
	var queue []matrixTask // ready tasks: captures, then replays heaviest column first
	capturing := make([]bool, len(cells)/ns)
	replays := make([][]int, len(capturing)) // column -> its replay cells' k
	for k, i := range miss {
		col := i / ns
		if capturing[col] {
			replays[col] = append(replays[col], k)
			continue
		}
		capturing[col] = true
		queue = append(queue, matrixTask{k: k})
	}
	captures := len(queue)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(miss))
	stats := CellStats{Cells: len(miss), Workers: workers}
	if len(miss) == 0 {
		return nil, stats, 0, nil
	}
	res := make([]Metrics, len(miss))
	walls := make([]time.Duration, len(miss))
	var (
		mu      sync.Mutex
		wake    = sync.NewCond(&mu)
		running int
		failed  error
	)
	// next blocks until a task is ready and returns it, or returns false
	// once the queue is drained with nothing running, or after an error.
	next := func() (matrixTask, bool) {
		mu.Lock()
		defer mu.Unlock()
		for failed == nil && len(queue) == 0 && running > 0 {
			wake.Wait()
		}
		if failed != nil || len(queue) == 0 {
			return matrixTask{}, false
		}
		running++
		t := queue[0]
		queue[0] = matrixTask{} // the queue must not keep a finished column alive
		queue = queue[1:]
		return t, true
	}
	// done records a finished task and, for a capture, queues its column's
	// replays.
	done := func(t matrixTask, col *workload.Captured, err error) {
		mu.Lock()
		defer mu.Unlock()
		running--
		switch {
		case err != nil:
			if failed == nil {
				c := cells[miss[t.k]]
				failed = fmt.Errorf("harness: %s on %s: %w", c.Workload.Name, c.Scheme, err)
			}
		case col != nil:
			at, w := 0, columnWeight(col)
			for at < len(queue) && (queue[at].col == nil || columnWeight(queue[at].col) >= w) {
				at++
			}
			ks := replays[miss[t.k]/ns]
			batch := make([]matrixTask, len(ks))
			for j, k := range ks {
				batch[j] = matrixTask{k: k, col: col}
			}
			queue = slices.Insert(queue, at, batch...)
		}
		wake.Broadcast()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t, ok := next(); ok; t, ok = next() {
				cellStart := time.Now()
				met, col, err := runMatrixTask(cells[miss[t.k]], t.col)
				res[t.k], walls[t.k] = met, time.Since(cellStart)
				done(t, col, err)
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	for _, d := range walls {
		stats.CellSum += d
		stats.MaxCell = max(stats.MaxCell, d)
	}
	if failed != nil {
		return nil, stats, 0, failed
	}
	return res, stats, captures, nil
}

// runMatrixTask runs one cell of the pipeline: a capture when col is nil,
// returning the column it records, or else a replay of col. Either way the
// cell's system is released when it ends. A panic comes back as an error,
// so one bad cell cannot take the pool down.
func runMatrixTask(c Cell, col *workload.Captured) (met Metrics, captured *workload.Captured, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var sys *engine.System
	if col != nil {
		met, sys, err = replayCellRun(c, col)
	} else {
		met, captured, sys, err = captureCellRun(c)
	}
	if sys != nil {
		sys.Release()
	}
	return met, captured, err
}

// assembleMatrix indexes per-cell metrics into the workload × scheme map.
func assembleMatrix(cells []Cell, mets []Metrics, stats CellStats, schemes []string) *Matrix {
	m := &Matrix{Cells: map[string]map[string]Metrics{}, Stats: stats}
	for i, c := range cells {
		if m.Cells[c.Workload.Name] == nil {
			m.Workloads = append(m.Workloads, c.Workload.Name)
			m.Cells[c.Workload.Name] = map[string]Metrics{}
		}
		m.Cells[c.Workload.Name][c.Scheme] = mets[i]
	}
	m.Schemes = append(m.Schemes, schemes...)
	return m
}

// Figure7a renders normalized transaction throughput (Figure 7a: higher is
// better, normalized to Opt-Redo as in the paper).
func Figure7a(m *Matrix) *Grid {
	g := &Grid{
		Title:   "Figure 7a: transaction throughput (normalized to Opt-Redo; higher is better)",
		RowName: "workload",
		Rows:    m.Workloads,
		Cols:    m.Schemes,
	}
	for _, w := range m.Workloads {
		base := m.Cells[w][engine.SchemeRedo].Throughput()
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = m.Cells[w][s].Throughput() / base
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// Figure7b renders critical-path latency (Figure 7b: lower is better,
// normalized to the native system).
func Figure7b(m *Matrix) *Grid {
	g := &Grid{
		Title:   "Figure 7b: critical-path latency (normalized to Ideal; lower is better)",
		RowName: "workload",
		Rows:    m.Workloads,
		Cols:    m.Schemes,
	}
	for _, w := range m.Workloads {
		base := float64(m.Cells[w][engine.SchemeNative].AvgLatency())
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = float64(m.Cells[w][s].AvgLatency()) / base
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// Figure8 renders NVM write traffic per transaction (normalized to the
// native system; lower is better).
func Figure8(m *Matrix) *Grid {
	g := &Grid{
		Title:   "Figure 8: NVM write traffic per transaction (normalized to Ideal; lower is better)",
		RowName: "workload",
		Rows:    m.Workloads,
		Cols:    m.Schemes,
	}
	for _, w := range m.Workloads {
		base := m.Cells[w][engine.SchemeNative].WritesPerTx()
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = m.Cells[w][s].WritesPerTx() / base
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// Figure9 renders NVM energy per transaction (normalized to the native
// system; lower is better).
func Figure9(m *Matrix) *Grid {
	g := &Grid{
		Title:   "Figure 9: NVM energy per transaction (normalized to Ideal; lower is better)",
		RowName: "workload",
		Rows:    m.Workloads,
		Cols:    m.Schemes,
	}
	for _, w := range m.Workloads {
		base := m.Cells[w][engine.SchemeNative].EnergyPerTx()
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = m.Cells[w][s].EnergyPerTx() / base
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// Headline computes the paper's headline comparisons from a matrix: HOOP's
// mean throughput improvement over each scheme, its mean latency reduction,
// and its write-traffic ratios (the numbers quoted in §IV-B/C/D).
type Headline struct {
	ThroughputGainVs map[string]float64 // HOOP tput / scheme tput - 1
	LatencyCutVs     map[string]float64 // 1 - HOOP latency / scheme latency
	TrafficRatioOf   map[string]float64 // scheme bytes / HOOP bytes
	VsIdealTput      float64            // HOOP tput / Ideal tput
	VsIdealLatency   float64            // HOOP latency / Ideal latency
}

// ComputeHeadline derives the headline numbers.
func ComputeHeadline(m *Matrix) Headline {
	h := Headline{
		ThroughputGainVs: map[string]float64{},
		LatencyCutVs:     map[string]float64{},
		TrafficRatioOf:   map[string]float64{},
	}
	for _, s := range m.Schemes {
		if s == engine.SchemeHOOP {
			continue
		}
		var tputR, latR, trafR []float64
		for _, w := range m.Workloads {
			hoopM := m.Cells[w][engine.SchemeHOOP]
			otherM := m.Cells[w][s]
			tputR = append(tputR, hoopM.Throughput()/otherM.Throughput())
			latR = append(latR, float64(hoopM.AvgLatency())/float64(otherM.AvgLatency()))
			// Read-only workloads (YCSB-C) write nothing under any scheme;
			// a traffic ratio is undefined there, so they sit out the mean.
			if hoopM.WritesPerTx() > 0 && otherM.WritesPerTx() > 0 {
				trafR = append(trafR, otherM.WritesPerTx()/hoopM.WritesPerTx())
			}
		}
		h.ThroughputGainVs[s] = geoMean(tputR) - 1
		h.LatencyCutVs[s] = 1 - geoMean(latR)
		h.TrafficRatioOf[s] = geoMean(trafR)
	}
	h.VsIdealTput = 1 + h.ThroughputGainVs[engine.SchemeNative]
	h.VsIdealLatency = 1 / (1 - h.LatencyCutVs[engine.SchemeNative])
	return h
}

// FormatHeadline renders the headline block.
func FormatHeadline(h Headline) string {
	order := []string{engine.SchemeRedo, engine.SchemeUndo, engine.SchemeOSP, engine.SchemeLSM, engine.SchemeLAD}
	out := "HOOP headline numbers (geometric mean over all workloads):\n"
	for _, s := range order {
		out += fmt.Sprintf("  vs %-9s throughput %+6.1f%%   latency %+6.1f%% shorter   traffic ratio %.2fx\n",
			s+":", h.ThroughputGainVs[s]*100, h.LatencyCutVs[s]*100, h.TrafficRatioOf[s])
	}
	out += fmt.Sprintf("  vs Ideal:    throughput %5.1f%% of ideal, latency %.2fx ideal\n",
		h.VsIdealTput*100, h.VsIdealLatency)
	return out
}

// ReadProfile computes the §IV-C read-path profile: memory loads per LLC
// miss, the parallel-read fraction, and the LLC miss ratio, from a HOOP
// cell's counters.
type ReadProfile struct {
	LoadsPerLLCMiss  float64
	ParallelReadFrac float64
	LLCMissRatio     float64
	EvictBufHitFrac  float64
}

// ComputeReadProfile derives the profile from a HOOP measurement window.
func ComputeReadProfile(met Metrics) ReadProfile {
	c := met.Counters
	mapHits := float64(c[sim.StatMapHits])
	mapMisses := float64(c[sim.StatMapMisses])
	parallel := float64(c[sim.StatParallelRead])
	evb := float64(c[sim.StatEvictBufHits])
	misses := mapHits + mapMisses
	accesses := float64(c[sim.StatL1Hits] + c[sim.StatL2Hits] + c[sim.StatLLCHits] + c[sim.StatLLCMisses])
	var p ReadProfile
	if misses > 0 {
		p.LoadsPerLLCMiss = (mapHits + parallel + (mapMisses - evb)) / misses
		p.ParallelReadFrac = parallel / misses
		p.EvictBufHitFrac = evb / misses
	}
	if accesses > 0 {
		p.LLCMissRatio = float64(c[sim.StatLLCMisses]) / accesses
	}
	return p
}
