package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hoop/internal/engine"
	"hoop/internal/harness"
	"hoop/internal/loadgen"
	"hoop/internal/service"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// Benchmark scale. The reference host has 2 CPUs, so the harness pool and
// the service fleet are pinned at 2. Each unit is sized to take 0.6 to 2
// seconds there, so a 16-second window holds several units and the run
// reports their median.
const (
	poolSize = 2

	// The paper suite at 1/32 of the quick matrix's per-thread key space
	// and 1/4 of its transactions per cell. Preloading the key space
	// dominates a cell's cost, so this is what brings the 49-cell matrix
	// from about 15s to a unit.
	matrixKeys = 512
	matrixTxs  = 300

	// The sweep rows' transactions per cell; their preload dominates too.
	sweepTxs = 50

	// The service tier as cmd/hoopd runs it, at about 2/3 of a HOOP
	// shard's simulated saturation (3M req/s), so queues form.
	kvKeys     = 16384
	kvValBytes = 64
	kvQueue    = 1024
	kvRate     = 2e6 // requests per simulated second per shard
	kvUnit     = 150 * sim.Millisecond
	// submitBatch is how many requests a generator draws before submitting
	// them, so the traced run times batches rather than single calls.
	submitBatch = 256
)

// config is what every workload is built from.
type config struct {
	seed uint64
	// workDir holds the run's scratch files (profiles).
	workDir string
	// goldenDir holds the harness's golden grids.
	goldenDir string
}

// instance is one set-up workload, ready to run timed units.
type instance interface {
	// run executes one timed unit. tr is non-nil only in the traced phase.
	run(tr *tracer) error
	// report checks the last unit's result with ck and renders it. It runs
	// outside the timed unit.
	report(ck *checker) output
	close()
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// fresh marks a workload whose unit consumes its instance: every unit
	// opens a new one, and each open is one set-up.
	fresh bool
	open  func(cfg config, ck *checker) (instance, error)
	// verify, when non-nil, checks the reference output once after the
	// timed window against an independent oracle.
	verify func(cfg config, ck *checker, ref output) error
}

var workloads = []*workloadDef{
	{name: "paper-matrix", open: openMatrix(paperMatrix), verify: verifyDirect(paperMatrix)},
	{name: "sweeps", open: openMatrix(sweepMatrix), verify: verifyDirect(sweepMatrix)},
	{name: "contention", open: openContention, verify: verifyContentionGolden},
	{name: "kv-soak", fresh: true, open: openKVSoak, verify: verifyKVShardInvariance},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// output is one unit's simulated result.
type output struct {
	// text is the rendered simulated output; sim_digest is its sha256.
	text   string
	counts counts
	// pool is the harness worker pool's account of the unit, nil outside
	// the harness.
	pool *poolStats
}

// counts are the unit's modelled event counts.
type counts struct {
	txs, loads, stores               int64
	cacheAccesses, llcMisses         int64
	nvmAccesses, nvmWritten, nvmRead int64
	mapHits, mapMisses               int64
	sliceFlushes, gcMigrated         int64
	requests, shed                   int64
	// abortPct is the mean abort rate over the contention grid's cells.
	abortPct   float64
	sojournP99 sim.Duration
}

// add accumulates one measurement window's totals.
func (c *counts) add(txs, loads, stores int64, ctr map[string]int64) {
	c.txs += txs
	c.loads += loads
	c.stores += stores
	c.cacheAccesses += ctr[sim.StatL1Hits] + ctr[sim.StatL2Hits] + ctr[sim.StatLLCHits] + ctr[sim.StatLLCMisses]
	c.llcMisses += ctr[sim.StatLLCMisses]
	c.nvmAccesses += ctr[sim.StatNVMReads] + ctr[sim.StatNVMWrites]
	c.nvmWritten += ctr[sim.StatNVMBytesWritten]
	c.nvmRead += ctr[sim.StatNVMBytesRead]
	c.mapHits += ctr[sim.StatMapHits]
	c.mapMisses += ctr[sim.StatMapMisses]
	c.sliceFlushes += ctr[sim.StatSliceFlushes]
	c.gcMigrated += ctr[sim.StatGCBytesMigrated]
}

// poolStats is the harness's own account of one matrix run.
type poolStats struct {
	cellSum, maxCell time.Duration
	speedup          float64
	capturesRun      int
}

// tracer collects the benchmark's timers around its own calls into the
// service tier during traced units.
type tracer struct {
	submits, nexts  int64
	submit, next    time.Duration
	opens, quiesces []time.Duration
}

// figure is one grid rendered from a matrix, with the column it is
// normalized to ("" for none).
type figure struct {
	render func(*harness.Matrix) *harness.Grid
	base   string
}

// paperFigures are the paper's Figures 7a, 7b, 8 and 9.
var paperFigures = []figure{
	{harness.Figure7a, engine.SchemeRedo},
	{harness.Figure7b, engine.SchemeNative},
	{harness.Figure8, engine.SchemeNative},
	{harness.Figure9, engine.SchemeNative},
}

// sweepFigures is the sweeps' absolute throughput grid. The paper
// figures do not suit them: a scan-heavy row may write nothing on the
// Ideal scheme, which Figures 8 and 9 normalize to.
var sweepFigures = []figure{{throughputGrid, ""}}

// throughputGrid renders a matrix as throughput in Ktx/s, one row per
// workload, one column per scheme.
func throughputGrid(m *harness.Matrix) *harness.Grid {
	g := &harness.Grid{Title: "Throughput (Ktx/s)", RowName: "workload", Rows: m.Workloads, Cols: m.Schemes, Format: "%.1f"}
	for _, w := range m.Workloads {
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = m.Cells[w][s].Throughput() / 1e3
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// matrixOutput renders a matrix run: its figures, then every cell's full
// metrics, so the digest covers every simulated number.
func matrixOutput(m *harness.Matrix, figures []figure) output {
	var b strings.Builder
	for _, f := range figures {
		f.render(m).Render(&b)
		b.WriteString("\n")
	}
	var c counts
	for _, w := range m.Workloads {
		for _, s := range m.Schemes {
			met := m.Cells[w][s]
			fmt.Fprintf(&b, "%s %s %+v\n", w, s, met)
			c.add(met.Txs, met.Loads, met.Stores, met.Counters)
		}
	}
	return output{text: b.String(), counts: c, pool: &poolStats{
		cellSum:     m.Stats.CellSum,
		maxCell:     m.Stats.MaxCell,
		speedup:     m.Stats.Speedup(),
		capturesRun: m.CapturesRun,
	}}
}

// matrixInst runs one matrix on the record-once/replay-many pipeline.
type matrixInst struct {
	opts    harness.Options
	suite   []workload.Workload
	figures []figure
	last    *harness.Matrix
}

func (m *matrixInst) run(*tracer) (err error) {
	m.last, err = harness.RunMatrixOn(m.opts, m.suite, engine.AllSchemes)
	return err
}

func (m *matrixInst) report(ck *checker) output {
	checkMatrix(ck, m.last, m.opts.TxsPerCell, m.figures)
	ck.check(m.last.CapturesRun == len(m.suite), "%d captures ran, want one per workload (%d)", m.last.CapturesRun, len(m.suite))
	return matrixOutput(m.last, m.figures)
}

func (m *matrixInst) close() {}

// paperMatrix is the paper suite on every scheme at benchmark scale.
func paperMatrix(cfg config) *matrixInst {
	opts := harness.Options{Seed: cfg.seed, Workers: poolSize, TxsPerCell: matrixTxs, WL: workload.Options{Keys: matrixKeys}}
	return &matrixInst{opts: opts, suite: workload.PaperSuite(opts.WL), figures: paperFigures}
}

// sweepMatrix is the value-size and scan-fraction sweeps at benchmark
// scale: YCSB-A at 64 B, 4 KB and 64 KB values, and the ordered-store
// scan workload at 25% and 95% scans. The harness's quick sweep holds 64
// keys of 64 KB per thread, which takes about 15s by itself; key counts
// here shrink with value size so the 64 KB row still dominates the unit.
func sweepMatrix(cfg config) *matrixInst {
	var suite []workload.Workload
	for _, o := range []workload.Options{
		{ValBytes: 64, Keys: 256},
		{ValBytes: 4096, Keys: 16},
		{ValBytes: 65536, Keys: 2, OpsPerTx: 1},
	} {
		suite = append(suite, workload.MustBuild("ycsb-a", o))
	}
	for _, f := range []float64{0.25, 0.95} {
		suite = append(suite, workload.MustBuild("scan", workload.Options{Keys: 256, Mix: workload.Mix{Scan: f, Update: 1 - f}}))
	}
	opts := harness.Options{Seed: cfg.seed, Workers: poolSize, TxsPerCell: sweepTxs}
	return &matrixInst{opts: opts, suite: suite, figures: sweepFigures}
}

// openMatrix opens a matrix workload; its inputs need no set-up beyond
// the warm-up unit.
func openMatrix(build func(config) *matrixInst) func(config, *checker) (instance, error) {
	return func(cfg config, _ *checker) (instance, error) { return build(cfg), nil }
}

// verifyDirect checks the replay pipeline's reference output against
// direct execution of every cell, which must be bit-identical.
func verifyDirect(build func(config) *matrixInst) func(config, *checker, output) error {
	return func(cfg config, ck *checker, ref output) error {
		m := build(cfg)
		m.opts.DirectMatrix = true
		mat, err := harness.RunMatrixOn(m.opts, m.suite, engine.AllSchemes)
		if err != nil {
			return fmt.Errorf("direct execution: %w", err)
		}
		ck.check(matrixOutput(mat, m.figures).text == ref.text, "replay output differs from direct execution")
		return nil
	}
}

// contentionInst runs the quick contention figure, whose seed-1 output
// is the harness's contention golden.
type contentionInst struct {
	opts         harness.Options
	tput, aborts *harness.Grid
}

func openContention(cfg config, _ *checker) (instance, error) {
	return &contentionInst{opts: harness.Options{Quick: true, Seed: cfg.seed, Workers: poolSize}}, nil
}

func (c *contentionInst) run(*tracer) (err error) {
	c.tput, c.aborts, err = harness.ContentionFigure(c.opts)
	return err
}

// report renders the grids as the harness's golden file holds them.
func (c *contentionInst) report(ck *checker) output {
	checkContention(ck, c.tput, c.aborts)
	var b strings.Builder
	c.tput.Render(&b)
	b.WriteString("\n")
	c.aborts.Render(&b)
	var sum float64
	var n int
	for _, row := range c.aborts.Cells {
		for _, v := range row {
			sum += v
			n++
		}
	}
	return output{text: b.String(), counts: counts{abortPct: sum / float64(n)}}
}

func (c *contentionInst) close() {}

// verifyContentionGolden compares the seed-1 output with the harness's
// golden contention grids.
func verifyContentionGolden(cfg config, ck *checker, ref output) error {
	if cfg.seed != 1 {
		return nil
	}
	want, err := os.ReadFile(filepath.Join(cfg.goldenDir, "contention_grids.golden"))
	if err != nil {
		return err
	}
	checkGolden(ck, "contention_grids.golden", ref.text, string(want))
	return nil
}

// kvInst is a service fleet set up and ready for one soak.
type kvInst struct {
	svc     *service.Service
	streams []*loadgen.Stream
	before  []engine.RunSnapshot
	opened  time.Duration
}

func openKVSoak(cfg config, _ *checker) (instance, error) {
	return openKV(cfg.seed, poolSize, kvUnit)
}

// openKV opens a fleet of shards HOOP shards with one open-loop stream
// per shard lasting horizon, and waits until every shard has preloaded.
func openKV(seed uint64, shards int, horizon sim.Duration) (*kvInst, error) {
	start := time.Now()
	ec := engine.DefaultConfig(engine.SchemeHOOP)
	ec.Threads = 1
	handlers := make([]engine.ShardHandler, shards)
	for i := range handlers {
		h, err := service.NewKVHandler(service.KVConfig{Keys: kvKeys, ValBytes: kvValBytes})
		if err != nil {
			return nil, err
		}
		handlers[i] = h
	}
	svc, err := service.Open(service.Config{
		Shards:     shards,
		Seed:       seed,
		Engine:     ec,
		Handler:    func(i int) engine.ShardHandler { return handlers[i] },
		QueueDepth: kvQueue,
		Policy:     service.PolicyBlock,
	})
	if err != nil {
		return nil, err
	}
	svc.Serve()
	svc.Quiesce() // handler preload finishes before the first submission
	k := &kvInst{svc: svc, opened: time.Since(start)}
	for j := 0; j < shards; j++ {
		k.before = append(k.before, svc.Shard(j).System().Snapshot())
		st, err := loadgen.NewStream(loadgen.StreamConfig{
			Seed:     engine.ShardSeed(seed, j),
			Keys:     kvKeys,
			Rate:     kvRate,
			Arrivals: loadgen.ArrivalPoisson,
			Tenants:  loadgen.Mixes["update-heavy"],
			Horizon:  horizon,
			SeqBase:  uint64(j) << 48,
		})
		if err != nil {
			svc.Close()
			return nil, err
		}
		k.streams = append(k.streams, st)
	}
	return k, nil
}

// run drives every shard from its own stream on its own goroutine, as
// hoopd's sharded route does, then drains the fleet.
func (k *kvInst) run(tr *tracer) error {
	type timers struct {
		n            int64
		submit, next time.Duration
	}
	per := make([]timers, len(k.streams))
	clock := func() time.Time { // the boundary timers run in the traced phase only
		if tr == nil {
			return time.Time{}
		}
		return time.Now()
	}
	var wg sync.WaitGroup
	for j, st := range k.streams {
		wg.Add(1)
		go func(j int, st *loadgen.Stream) {
			defer wg.Done()
			t := &per[j]
			batch := make([]engine.ShardRequest, 0, submitBatch)
			for more := true; more; {
				t0 := clock()
				batch = batch[:0]
				for len(batch) < cap(batch) {
					req, ok := st.Next()
					if more = ok; !ok {
						break
					}
					batch = append(batch, req)
				}
				t1 := clock()
				for _, req := range batch {
					k.svc.SubmitTo(j, req)
				}
				t.next += t1.Sub(t0)
				t.submit += clock().Sub(t1)
				t.n += int64(len(batch))
			}
		}(j, st)
	}
	wg.Wait()
	q0 := time.Now()
	k.svc.Quiesce()
	if tr != nil {
		tr.quiesces = append(tr.quiesces, time.Since(q0))
		tr.opens = append(tr.opens, k.opened)
		for _, t := range per {
			tr.submits += t.n
			tr.nexts += t.n + 1 // the last Next reports the end of the stream
			tr.submit += t.submit
			tr.next += t.next
		}
	}
	return nil
}

// report reads every shard's account of the soak.
func (k *kvInst) report(ck *checker) output {
	reports := make([]shardReport, len(k.streams))
	var c counts
	for j := range reports {
		sh := k.svc.Shard(j)
		h := sh.Sojourn()
		reports[j] = shardReport{
			offered:  k.streams[j].Generated(),
			executed: sh.Executed(),
			shed:     sh.Shed(),
			p50:      h.Quantile(0.50),
			p99:      h.Quantile(0.99),
			p999:     h.Quantile(0.999),
			maxDelay: sh.MaxQueueDelay(),
			span:     k.svc.StreamSpan(j),
		}
		d := sh.System().Snapshot().Delta(k.before[j])
		c.add(d.Txs, d.Loads, d.Stores, d.CounterMap())
	}
	checkSoak(ck, reports)
	merged := k.svc.MergedSojourn()
	c.requests, c.shed = k.svc.Executed(), k.svc.Shed()
	c.sojournP99 = merged.Quantile(0.99)
	var b strings.Builder
	for j, r := range reports {
		b.WriteString(r.line(j))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "fleet: executed %d shed %d p50 %v p99 %v p999 %v max %v\n",
		c.requests, c.shed, merged.Quantile(0.50), c.sojournP99, merged.Quantile(0.999), merged.Max())
	return output{text: b.String(), counts: c}
}

func (k *kvInst) close() { k.svc.Close() }

// verifyKVShardInvariance reruns shard 0 alone: under the sharded route
// shard 0's run depends only on the seed, never on the fleet size.
func verifyKVShardInvariance(cfg config, ck *checker, ref output) error {
	k, err := openKV(cfg.seed, 1, kvUnit)
	if err != nil {
		return err
	}
	defer k.close()
	if err := k.run(nil); err != nil {
		return err
	}
	got, _, _ := strings.Cut(k.report(ck).text, "\n")
	want, _, _ := strings.Cut(ref.text, "\n")
	ck.check(got == want, "shard 0 alone reports %q, in the fleet %q", got, want)
	return nil
}
