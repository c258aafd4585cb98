package harness

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/hoop"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// Figure10 measures HOOP transaction throughput across GC trigger periods
// (the paper sweeps 2–14 ms): too-frequent GC wastes bandwidth and loses
// coalescing; too-rare GC exhausts the reserved space and forces on-demand
// GC onto the critical path, so throughput peaks in the middle.
//
// In Quick mode both the periods and the space budget scale down 10× (the
// mechanics — coalescing window versus space pressure — scale with
// period × transaction rate, so the curve's shape is preserved).
func Figure10(opts Options) (*Grid, error) {
	periodsMS := []float64{2, 4, 6, 8, 10, 12, 14}
	scale := 1.0
	txs := 150000
	commitLog := 1 << 20 // ~32 Ki pending commits: exhausted near the sweep's tail
	if opts.Quick {
		scale = 0.1
		txs = 8000
		commitLog = 1 << 18
	}
	suite := workload.SyntheticSuite(opts.WL)
	g := &Grid{
		Title:   "Figure 10: HOOP throughput vs GC period (normalized to the 2 ms point; higher is better)",
		RowName: "workload",
		Format:  "%.2f",
	}
	for _, p := range periodsMS {
		g.Cols = append(g.Cols, fmt.Sprintf("%gms", p))
	}
	var cells []Cell
	for _, wl := range suite {
		for _, p := range periodsMS {
			period := sim.Duration(p * scale * float64(sim.Millisecond))
			cells = append(cells, Cell{
				Scheme: engine.SchemeHOOP, Workload: wl, Txs: txs, Seed: opts.Seed + 5,
				Mut: func(c *engine.Config) {
					c.Hoop.GCPeriod = period
					c.Hoop.CommitLogBytes = commitLog
				},
			})
		}
	}
	opts.attachTrace("fig10", cells)
	mets, _, _, err := runCached(cells, opts, 0)
	if err != nil {
		return nil, err
	}
	for wi, wl := range suite {
		g.Rows = append(g.Rows, wl.Name)
		row := make([]float64, 0, len(periodsMS))
		base := mets[wi*len(periodsMS)].Throughput()
		for i := range periodsMS {
			row = append(row, mets[wi*len(periodsMS)+i].Throughput()/base)
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// Figure11 measures recovery time of a filled OOP region across recovery
// thread counts and NVM bandwidths. The region is filled with committed
// but un-migrated transactions (1 GB as in the paper; 64 MB in Quick
// mode), recovered once functionally (and verified replayable), and the
// analytic model is evaluated over the grid. The scheme must implement
// persist.RecoveryScanner.
func Figure11(opts Options) (*Grid, persist.RecoveryReport, error) {
	fillBytes := int64(1 << 30)
	if opts.Quick {
		fillBytes = 64 << 20
	}
	const wordsPerTx = 64 // 8 slices per transaction
	numTxs := int(fillBytes / (8 * hoop.SliceSize))

	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Hoop.CommitLogBytes = 64 << 20
	cfg.Hoop.GCPeriod = sim.Second // fill must stay un-migrated
	sys, err := engine.New(cfg)
	if err != nil {
		return nil, persist.RecoveryReport{}, err
	}
	hs, ok := sys.Scheme().(persist.RecoveryScanner)
	if !ok {
		return nil, persist.RecoveryReport{},
			fmt.Errorf("harness: figure 11 needs a scheme with an instrumented recovery scan; %s implements no persist.RecoveryScanner", cfg.Scheme)
	}
	// A bounded address space yields recovery-time coalescing, as a skewed
	// workload would.
	if _, err := hs.SyntheticFill(numTxs, wordsPerTx, 64<<20, opts.Seed+7); err != nil {
		return nil, persist.RecoveryReport{}, err
	}
	sys.Crash()
	rep, err := hs.RecoverWithReport(8)
	if err != nil {
		return nil, persist.RecoveryReport{}, err
	}

	threads := []int{1, 2, 4, 8, 16}
	bandwidthsGB := []int{10, 15, 20, 25, 30}
	g := &Grid{
		Title: fmt.Sprintf("Figure 11: recovery time (ms) of %d MB OOP region vs threads and NVM bandwidth",
			fillBytes>>20),
		RowName: "threads",
		Format:  "%.1f",
	}
	for _, bw := range bandwidthsGB {
		g.Cols = append(g.Cols, fmt.Sprintf("%dGB/s", bw))
	}
	for _, t := range threads {
		g.Rows = append(g.Rows, fmt.Sprintf("%d", t))
		row := make([]float64, 0, len(bandwidthsGB))
		for _, bw := range bandwidthsGB {
			d := hoop.ModelRecoveryTime(rep, t, int64(bw)<<30)
			row = append(row, d.Milliseconds())
		}
		g.Cells = append(g.Cells, row)
	}
	return g, rep, nil
}

// ycsb1k is the Figure 12/13 workload: the caller's base options with the
// paper's 1 KB items pinned.
func ycsb1k(opts Options) workload.Options {
	o := opts.WL
	o.ValBytes = 1024
	return o
}

// Figure12 measures YCSB throughput sensitivity to NVM read and write
// latency: one sweep varies the read latency with the write latency at its
// default 150 ns, the other varies the write latency with the read latency
// at 50 ns (§IV-H).
func Figure12(opts Options) (*Grid, error) {
	latencies := []int{50, 100, 150, 200, 250}
	txs := opts.txPerCell() / 2
	wl := workload.MustBuild("ycsb", ycsb1k(opts))
	g := &Grid{
		Title:   "Figure 12: YCSB-1k HOOP throughput (Ktx/s) vs NVM latency",
		RowName: "sweep",
		Format:  "%.0f",
	}
	for _, l := range latencies {
		g.Cols = append(g.Cols, fmt.Sprintf("%dns", l))
	}
	var cells []Cell
	for _, l := range latencies {
		lat := sim.Duration(l) * sim.Nanosecond
		cells = append(cells, Cell{
			Scheme: engine.SchemeHOOP, Workload: wl, Txs: txs, Seed: opts.Seed + 9,
			Mut: func(c *engine.Config) { c.NVM.ReadLatency = lat },
		})
	}
	for _, l := range latencies {
		lat := sim.Duration(l) * sim.Nanosecond
		cells = append(cells, Cell{
			Scheme: engine.SchemeHOOP, Workload: wl, Txs: txs, Seed: opts.Seed + 9,
			Mut: func(c *engine.Config) {
				c.NVM.ReadLatency = 50 * sim.Nanosecond
				c.NVM.WriteLatency = lat
			},
		})
	}
	opts.attachTrace("fig12", cells)
	mets, _, _, err := runCached(cells, opts, 0)
	if err != nil {
		return nil, err
	}
	readRow := make([]float64, 0, len(latencies))
	writeRow := make([]float64, 0, len(latencies))
	for i := range latencies {
		readRow = append(readRow, mets[i].Throughput()/1e3)
		writeRow = append(writeRow, mets[len(latencies)+i].Throughput()/1e3)
	}
	g.Rows = []string{"read latency (write=150ns)", "write latency (read=50ns)"}
	g.Cells = [][]float64{readRow, writeRow}
	return g, nil
}

// Figure13 measures YCSB throughput sensitivity to the mapping-table size:
// a small table forces on-demand GC whenever it fills; past 2 MB the gains
// flatten because the periodic GC bounds table occupancy anyway (§IV-H).
func Figure13(opts Options) (*Grid, error) {
	sizes := []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	txs := opts.txPerCell() / 2
	if opts.Quick {
		// Scale the sweep to the shorter window: table pressure is
		// (eviction rate × GC period) versus capacity, so a 16× smaller
		// table at a smaller window shows the same mechanism.
		sizes = []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
		txs = 2500
	}
	wl := workload.MustBuild("ycsb", ycsb1k(opts))
	g := &Grid{
		Title:   "Figure 13: YCSB-1k HOOP throughput vs mapping-table size (normalized to 256 KB)",
		RowName: "metric",
		Format:  "%.2f",
	}
	for _, s := range sizes {
		if s >= 1<<20 {
			g.Cols = append(g.Cols, fmt.Sprintf("%dMB", s>>20))
		} else {
			g.Cols = append(g.Cols, fmt.Sprintf("%dKB", s>>10))
		}
	}
	var cells []Cell
	for _, size := range sizes {
		size := size
		cells = append(cells, Cell{
			Scheme: engine.SchemeHOOP, Workload: wl, Txs: txs, Seed: opts.Seed + 11,
			Mut: func(c *engine.Config) { c.Hoop.MapTableBytes = size },
		})
	}
	opts.attachTrace("fig13", cells)
	mets, _, _, err := runCached(cells, opts, 0)
	if err != nil {
		return nil, err
	}
	var tputRow, gcRow []float64
	base := mets[0].Throughput()
	for i := range sizes {
		tputRow = append(tputRow, mets[i].Throughput()/base)
		gcRow = append(gcRow, float64(mets[i].Counters[sim.StatGCOnDemand]))
	}
	g.Rows = []string{"throughput", "on-demand GCs"}
	g.Cells = [][]float64{tputRow, gcRow}
	return g, nil
}
