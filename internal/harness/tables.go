package harness

import (
	"fmt"
	"io"
	"strings"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Approach    string
	Subtype     string
	Project     string
	ReadLatency string
	OnCritPath  string
	FlushFence  string
	Traffic     string
}

// PaperTableI reproduces the paper's Table I verbatim (the qualitative
// comparison of crash-consistency techniques).
func PaperTableI() []TableIRow {
	return []TableIRow{
		{"Logging", "Undo", "DCT", "Low", "Yes", "No", "High"},
		{"Logging", "Undo", "ATOM", "Low", "Yes", "No", "Medium"},
		{"Logging", "Undo", "Proteus", "Low", "Yes", "No", "Medium"},
		{"Logging", "Undo", "PiCL", "High", "No", "No", "High"},
		{"Logging", "Redo", "Mnemosyne", "High", "Yes", "Yes", "High"},
		{"Logging", "Redo", "LOC", "High", "Yes", "No", "High"},
		{"Logging", "Redo", "BPPM", "Low", "Yes", "Yes", "Medium"},
		{"Logging", "Redo", "SoftWrAP", "High", "Yes", "Yes", "High"},
		{"Logging", "Redo", "WrAP", "High", "Yes", "No", "High"},
		{"Logging", "Redo", "DudeTM", "Low", "No", "No", "High"},
		{"Logging", "Redo", "ReDU", "High", "Yes", "No", "Medium"},
		{"Logging", "Undo+Redo", "FWB", "High", "Yes", "No", "High"},
		{"Shadow paging", "Page", "BPFS", "Low", "Yes", "Yes", "High"},
		{"Shadow paging", "Cache line", "SSP", "Low", "Yes", "Yes", "Low"},
		{"Log-structured NVM", "", "LSNVMM", "High", "No", "No", "Medium"},
		{"HOOP", "", "HOOP", "Low", "No", "No", "Low"},
	}
}

// RenderTableI writes the paper's Table I followed by the properties the
// implemented schemes report about themselves.
func RenderTableI(w io.Writer) {
	fmt.Fprintln(w, "Table I: comparison of crash-consistency techniques for NVM (paper)")
	fmt.Fprintf(w, "%-20s %-11s %-10s %-12s %-14s %-13s %s\n",
		"Approach", "Subtype", "Project", "ReadLatency", "CriticalPath", "Flush&Fence", "WriteTraffic")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, r := range PaperTableI() {
		fmt.Fprintf(w, "%-20s %-11s %-10s %-12s %-14s %-13s %s\n",
			r.Approach, r.Subtype, r.Project, r.ReadLatency, r.OnCritPath, r.FlushFence, r.Traffic)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Implemented schemes (self-reported properties):")
	for _, name := range engine.AllSchemes {
		sys, err := engine.New(quickSystemConfig(name))
		if err != nil {
			fmt.Fprintf(w, "  %-10s <error: %v>\n", name, err)
			continue
		}
		p := sys.Scheme().Properties()
		crit, ff := "No", "No"
		if p.OnCriticalPath {
			crit = "Yes"
		}
		if p.NeedFlushFence {
			ff = "Yes"
		}
		fmt.Fprintf(w, "  %-10s read=%-5s critical-path=%-4s flush&fence=%-4s traffic=%s\n",
			name, p.ReadLatency, crit, ff, p.WriteTraffic)
	}
}

// quickSystemConfig is a minimal config for property inspection.
func quickSystemConfig(scheme string) engine.Config {
	cfg := engine.DefaultConfig(scheme)
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	return cfg
}

// RenderTableII writes the system configuration (the paper's Table II).
func RenderTableII(w io.Writer, cfg engine.Config) {
	fmt.Fprintln(w, "Table II: system configuration")
	fmt.Fprintf(w, "  Processor       %.1f GHz, %d cores (workloads run %d threads)\n",
		float64(engine.CPUFreq)/1e9, cfg.Cores, cfg.Threads)
	fmt.Fprintf(w, "  L1 I/D cache    %d KB, %d-way, %v\n", cfg.Cache.L1Size>>10, cfg.Cache.L1Ways, cfg.Cache.L1Latency)
	fmt.Fprintf(w, "  L2 cache        %d KB, %d-way, inclusive, %v\n", cfg.Cache.L2Size>>10, cfg.Cache.L2Ways, cfg.Cache.L2Latency)
	fmt.Fprintf(w, "  LLC             %d MB, %d-way, inclusive, %v\n", cfg.Cache.LLCSize>>20, cfg.Cache.LLCWays, cfg.Cache.LLCLatency)
	fmt.Fprintf(w, "  NVM             read %v / write %v, %d GB, %d banks, %.1f GB/s channel\n",
		cfg.NVM.ReadLatency, cfg.NVM.WriteLatency, cfg.NVM.Capacity>>30, cfg.NVM.Banks,
		float64(cfg.NVM.Bandwidth)/float64(1<<30))
	e := cfg.NVM.Energy
	fmt.Fprintf(w, "  NVM energy      row buffer %.2f/%.2f pJ/bit r/w, array %.2f/%.2f pJ/bit r/w\n",
		e.RowBufferRead, e.RowBufferWrite, e.ArrayRead, e.ArrayWrite)
	fmt.Fprintf(w, "  HOOP            mapping table %d MB, OOP buffer %d KB/core, eviction buffer %d KB, GC every %v\n",
		cfg.Hoop.MapTableBytes>>20, cfg.Hoop.OOPBufBytesPerCore>>10, cfg.Hoop.EvictBufBytes>>10, cfg.Hoop.GCPeriod)
}

// RenderTableIII writes the benchmark characteristics (the paper's
// Table III).
func RenderTableIII(w io.Writer) {
	fmt.Fprintln(w, "Table III: benchmarks")
	fmt.Fprintf(w, "  %-12s %-24s %-10s %s\n", "Workload", "Description", "Stores/TX", "Write/Read")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 60))
	for _, wl := range append(workload.PaperSuite(workload.Options{}), workload.LargeItemSuite(workload.Options{})...) {
		fmt.Fprintf(w, "  %-12s %-24s %-10s %s\n", wl.Name, wl.Desc, wl.StoresPerTx, wl.WriteRead)
	}
}

// TableIV measures the GC data-reduction ratio (coalescing) as the number
// of transactions grows, per workload — the paper's Table IV.
func TableIV(opts Options) (*Grid, error) {
	counts := []int{10, 100, 1000, 10000}
	if opts.Quick {
		counts = []int{10, 100, 1000}
	}
	// Table IV measures update coalescing, so the benchmarks run on their
	// hot working sets (repeated updates to the same entries are what the
	// GC coalesces).
	base := opts.WL
	base.Keys = 512
	suite := workload.PaperSuite(base)
	g := &Grid{
		Title:   "Table IV: average data reduction in the GC of HOOP (coalesced fraction of modified bytes)",
		RowName: "tx count",
		Format:  "%.1f%%",
	}
	for _, wl := range suite {
		g.Cols = append(g.Cols, wl.Name)
	}
	var cells []Cell
	for _, n := range counts {
		for _, wl := range suite {
			cells = append(cells, Cell{
				Scheme: engine.SchemeHOOP, Workload: wl, Txs: n, Seed: opts.Seed + 3,
				Mut: func(c *engine.Config) {
					// Let coalescing accumulate across the whole window:
					// only the window-closing GC pass migrates.
					c.Hoop.GCPeriod = sim.Second
				},
			})
		}
	}
	opts.attachTrace("tableIV", cells)
	mets, _, _, err := runCached(cells, opts, 0)
	if err != nil {
		return nil, err
	}
	for ni, n := range counts {
		g.Rows = append(g.Rows, fmt.Sprintf("%d", n))
		row := make([]float64, 0, len(suite))
		for wi := range suite {
			met := mets[ni*len(suite)+wi]
			mig := met.Counters[sim.StatGCBytesMigrated]
			coal := met.Counters[sim.StatGCBytesCoalesed]
			red := 0.0
			if mig+coal > 0 {
				red = float64(coal) / float64(mig+coal) * 100
			}
			row = append(row, red)
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}
