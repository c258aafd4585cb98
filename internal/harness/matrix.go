package harness

import (
	"fmt"

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
// in-memory capture (see replay.go), all on one worker pool (runCached).
// opts.DirectMatrix runs every missing cell by direct execution instead.
// Direct, capture, and replay cells share one cache key because they are
// bit-identical, at every worker count.
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
	ns := len(schemes)
	if opts.DirectMatrix {
		ns = 0
	}
	mets, stats, capturesRun, err := runCached(cells, opts, ns)
	if err != nil {
		return nil, err
	}
	m := assembleMatrix(cells, mets, stats, schemes)
	if ns > 0 {
		m.Captures, m.CapturesRun = len(workloads), capturesRun
	}
	return m, nil
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

// matrixGrid renders one value per matrix cell, each divided by its
// workload's value under the base scheme unless base is "".
func matrixGrid(m *Matrix, title, format, base string, val func(Metrics) float64) *Grid {
	g := &Grid{Title: title, RowName: "workload", Rows: m.Workloads, Cols: m.Schemes, Format: format}
	for _, w := range m.Workloads {
		row := make([]float64, len(m.Schemes))
		for j, s := range m.Schemes {
			row[j] = val(m.Cells[w][s])
			if base != "" {
				row[j] /= val(m.Cells[w][base])
			}
		}
		g.Cells = append(g.Cells, row)
	}
	return g
}

// Figure7a renders normalized transaction throughput (Figure 7a: higher is
// better, normalized to Opt-Redo as in the paper).
func Figure7a(m *Matrix) *Grid {
	return matrixGrid(m, "Figure 7a: transaction throughput (normalized to Opt-Redo; higher is better)", "",
		engine.SchemeRedo, Metrics.Throughput)
}

// Figure7b renders critical-path latency (Figure 7b: lower is better,
// normalized to the native system).
func Figure7b(m *Matrix) *Grid {
	return matrixGrid(m, "Figure 7b: critical-path latency (normalized to Ideal; lower is better)", "",
		engine.SchemeNative, func(c Metrics) float64 { return float64(c.AvgLatency()) })
}

// Figure8 renders NVM write traffic per transaction (normalized to the
// native system; lower is better).
func Figure8(m *Matrix) *Grid {
	return matrixGrid(m, "Figure 8: NVM write traffic per transaction (normalized to Ideal; lower is better)", "",
		engine.SchemeNative, Metrics.WritesPerTx)
}

// Figure9 renders NVM energy per transaction (normalized to the native
// system; lower is better).
func Figure9(m *Matrix) *Grid {
	return matrixGrid(m, "Figure 9: NVM energy per transaction (normalized to Ideal; lower is better)", "",
		engine.SchemeNative, Metrics.EnergyPerTx)
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
