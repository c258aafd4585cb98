// Package harness regenerates every table and figure of the HOOP paper's
// evaluation (§IV): it builds simulated systems, runs the Table III
// workloads on each persistence scheme, and renders the same rows and
// series the paper reports. DESIGN.md maps each experiment to its
// function here; EXPERIMENTS.md records paper-vs-measured values.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks transaction counts so the whole suite runs in
	// seconds (used by tests); the full size matches the paper's
	// steady-state windows.
	Quick bool
	// Seed feeds every workload PRNG.
	Seed uint64
	// Charts additionally renders each grid as ASCII bar charts.
	Charts bool
	// ArtifactDir, when non-empty, receives one JSON file per grid for
	// downstream plotting.
	ArtifactDir string
	// Workers bounds the worker pool that executes independent cells;
	// zero or negative means runtime.GOMAXPROCS. Results are bit-identical
	// for every worker count.
	Workers int
	// Trace, when non-nil, collects a JSONL telemetry trace from every
	// cell (hoopbench -trace), labelled <section>/<workload>/<scheme> —
	// or <section>/<scheme>/<policy>/<point> for contention cells. Output
	// is identical for every worker count.
	Trace *telemetry.CellTrace
	// CacheDir, when non-empty, memoizes cells on disk (hoopbench
	// -cachedir): a rerun only executes cells whose inputs — workload and
	// its options, seed, transaction count, scheme, engine config —
	// changed. Tracing disables the cache, since a cached cell emits no
	// events.
	CacheDir string
	// DirectMatrix runs every matrix cell by direct workload execution
	// instead of record-once/replay-many. Results are bit-identical
	// either way; it exists only as the oracle that tests and the
	// benchmark compare the replay pipeline against.
	DirectMatrix bool
	// WL is the base workload.Options overlaid on every workload the
	// experiments build (zero fields keep each workload's defaults). Tests
	// shrink key counts with it; hoopbench maps sizing flags onto it.
	WL workload.Options
	// Suite, when non-empty, replaces the paper suite in the shared
	// Figure 7–9 matrix (hoopbench -suite / -workloads).
	Suite []workload.Workload
	// TxsPerCell, when positive, overrides the measured transactions per
	// matrix cell (default 24000, or 1200 in Quick mode). The sweep
	// sections use it: a 64 KB-value transaction moves three orders of
	// magnitude more data than a 64 B one, so sweep cells need far fewer
	// transactions for a stable mean.
	TxsPerCell int

	// cache is the run's open cell cache, shared by every section once
	// ensureCache opened it. Options is copied by value throughout the
	// harness; the pointer travels with the copies, so RunSections opens
	// the cache once and every section (and its hit/miss accounting)
	// shares it.
	cache *cellCache
}

// ensureCache opens the cell cache on first use (nil when caching is
// off). Sections called standalone get their own instance; RunSections
// pre-opens one so all sections share its hit/miss accounting.
func (o *Options) ensureCache() (*cellCache, error) {
	if o.cache != nil {
		return o.cache, nil
	}
	cc, err := openCellCache(*o)
	if err != nil {
		return nil, err
	}
	o.cache = cc
	return cc, nil
}

// workers resolves the effective worker count (<=0 → GOMAXPROCS).
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// txPerCell reports the measured transactions per (workload, scheme) cell.
func (o Options) txPerCell() int {
	if o.TxsPerCell > 0 {
		return o.TxsPerCell
	}
	if o.Quick {
		return 1200
	}
	return 24000
}

// Metrics is one measurement window.
type Metrics struct {
	Txs          int64
	Aborts       int64        // aborted transaction attempts in the window
	Span         sim.Duration // wall-clock span of the window
	LatencySum   sim.Duration
	BytesWritten int64
	BytesRead    int64
	EnergyPJ     float64
	Loads        int64
	Stores       int64
	Counters     map[string]int64
	// Phases is the telemetry phase breakdown of the window: per-kind
	// event counts and byte totals for the low-rate mechanism kinds
	// (drains, slice writes, GC epochs, log writes, ...) plus commits.
	Phases []telemetry.KindCount
	// Latency is the window's transaction critical-path latency
	// distribution (the engine's cumulative histogram differenced across
	// the window), from which tail percentiles fall out; mergeable across
	// cells via sim.Histogram.Merge, the same mechanism the service tier
	// uses for fleet-wide p99s.
	Latency sim.Histogram
}

// LatencyQuantile reports the q-th latency percentile of the window.
func (m Metrics) LatencyQuantile(q float64) sim.Duration {
	return m.Latency.Quantile(q)
}

// Throughput reports transactions per simulated second.
func (m Metrics) Throughput() float64 {
	if m.Span <= 0 {
		return 0
	}
	return float64(m.Txs) / m.Span.Seconds()
}

// AbortRate reports the fraction of transaction attempts that aborted
// (aborts / (commits + aborts)).
func (m Metrics) AbortRate() float64 {
	attempts := m.Txs + m.Aborts
	if attempts == 0 {
		return 0
	}
	return float64(m.Aborts) / float64(attempts)
}

// AvgLatency reports mean critical-path latency per transaction.
func (m Metrics) AvgLatency() sim.Duration {
	if m.Txs == 0 {
		return 0
	}
	return m.LatencySum / sim.Duration(m.Txs)
}

// WritesPerTx reports NVM bytes written per transaction.
func (m Metrics) WritesPerTx() float64 {
	if m.Txs == 0 {
		return 0
	}
	return float64(m.BytesWritten) / float64(m.Txs)
}

// EnergyPerTx reports NVM energy per transaction in picojoules.
func (m Metrics) EnergyPerTx() float64 {
	if m.Txs == 0 {
		return 0
	}
	return m.EnergyPJ / float64(m.Txs)
}

// window computes the metrics between two snapshots.
func window(before, after engine.RunSnapshot) Metrics {
	d := after.Delta(before)
	counters := d.CounterMap()
	return Metrics{
		Txs:          d.Txs,
		Aborts:       d.Aborts,
		Span:         sim.Duration(d.Span),
		LatencySum:   d.TxLatencySum,
		BytesWritten: counters[sim.StatNVMBytesWritten],
		BytesRead:    counters[sim.StatNVMBytesRead],
		EnergyPJ:     d.TotalEnergyPJ(),
		Loads:        d.Loads,
		Stores:       d.Stores,
		Counters:     counters,
	}
}

// Grid is a 2-D result table (rows × columns of float64 cells) with a
// caption, used to render every figure as text.
type Grid struct {
	Title   string
	RowName string
	Rows    []string
	Cols    []string
	Cells   [][]float64
	// Format formats one cell (default %.2f).
	Format string
}

// Cell returns the value at (row, col) by name.
func (g *Grid) Cell(row, col string) float64 {
	ri, ci := -1, -1
	for i, r := range g.Rows {
		if r == row {
			ri = i
		}
	}
	for j, c := range g.Cols {
		if c == col {
			ci = j
		}
	}
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("harness: no cell (%q, %q) in %q", row, col, g.Title))
	}
	return g.Cells[ri][ci]
}

// ColMean returns the arithmetic mean of a column.
func (g *Grid) ColMean(col string) float64 {
	ci := -1
	for j, c := range g.Cols {
		if c == col {
			ci = j
		}
	}
	if ci < 0 {
		panic("harness: unknown column " + col)
	}
	sum := 0.0
	for i := range g.Rows {
		sum += g.Cells[i][ci]
	}
	return sum / float64(len(g.Rows))
}

// Render writes the grid as an aligned text table.
func (g *Grid) Render(w io.Writer) {
	format := g.Format
	if format == "" {
		format = "%.2f"
	}
	fmt.Fprintf(w, "%s\n", g.Title)
	widths := make([]int, len(g.Cols)+1)
	widths[0] = len(g.RowName)
	for _, r := range g.Rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	cells := make([][]string, len(g.Rows))
	for i := range g.Rows {
		cells[i] = make([]string, len(g.Cols))
		for j := range g.Cols {
			cells[i][j] = fmt.Sprintf(format, g.Cells[i][j])
		}
	}
	for j, c := range g.Cols {
		widths[j+1] = len(c)
		for i := range g.Rows {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	line := func(parts []string) {
		var b strings.Builder
		for i, p := range parts {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], p)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	header := append([]string{g.RowName}, g.Cols...)
	line(header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for i, r := range g.Rows {
		line(append([]string{r}, cells[i]...))
	}
}

// String renders the grid to a string.
func (g *Grid) String() string {
	var b strings.Builder
	g.Render(&b)
	return b.String()
}

// geoMean computes the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
