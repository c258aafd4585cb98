package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hoop/internal/engine"
	"hoop/internal/workload"
)

// Report bundles the results of a full evaluation run, one field per paper
// artifact.
type Report struct {
	Matrix   *Matrix
	Fig7a    *Grid
	Fig7b    *Grid
	Fig8     *Grid
	Fig9     *Grid
	Headline Headline
	Profile  ReadProfile
	TableIV  *Grid
	Fig10    *Grid
	Fig11    *Grid
	Fig12    *Grid
	Fig13    *Grid
	// Contention is the concurrency-control sweep (throughput and abort
	// rate vs Zipfian theta × threads, all schemes × both cc policies).
	Contention       *Grid
	ContentionAborts *Grid
	// SweepValSize and SweepScan are the value-size and scan-fraction
	// sensitivity sweeps (sweeps.go).
	SweepValSize *Grid
	SweepScan    *Grid
}

// Section names accepted by RunSections. "ablation" (HOOP variants with
// packing/coalescing disabled and condensed mapping enabled) and
// "fig7-9-1k" (the Table III 1 KB-item data sets) extend the paper's
// artifacts and are not part of the default run.
var AllSections = []string{"tables", "fig7-9", "tableIV", "fig10", "fig11", "fig12", "fig13", "sweep-valsize", "sweep-scan", "contention", "area"}

// ExtraSections are opt-in experiments beyond the paper's figures.
var ExtraSections = []string{"ablation", "fig7-9-1k", "wear"}

// RunSections runs the requested subset of the evaluation.
func RunSections(w io.Writer, opts Options, sections []string) (*Report, error) {
	want := map[string]bool{}
	for _, s := range sections {
		want[s] = true
	}
	rep := &Report{}
	// Open the cell cache once so every section shares one instance (and
	// its per-section hit/miss accounting); sections re-fetch it through
	// opts.ensureCache and get this same pointer.
	cache, err := opts.ensureCache()
	if err != nil {
		return rep, err
	}
	stamp := func(section, name string) func() {
		start := time.Now()
		cache.setSection(section)
		fmt.Fprintf(w, "\n==== %s ====\n", name)
		return func() { fmt.Fprintf(w, "(%s computed in %.1fs)\n", name, time.Since(start).Seconds()) }
	}
	render := func(slug string, g *Grid) {
		g.Render(w)
		if opts.Charts {
			fmt.Fprintln(w)
			g.RenderBars(w)
		}
		if opts.ArtifactDir != "" {
			if err := SaveGridJSON(opts.ArtifactDir, slug, g); err != nil {
				fmt.Fprintf(w, "(artifact %s not saved: %v)\n", slug, err)
			}
		}
	}

	if want["tables"] {
		done := stamp("tables", "Tables I-III")
		RenderTableI(w)
		fmt.Fprintln(w)
		RenderTableII(w, engine.DefaultConfig(engine.SchemeHOOP))
		fmt.Fprintln(w)
		RenderTableIII(w)
		done()
	}

	if want["fig7-9"] {
		done := stamp("fig7-9", "Figures 7a, 7b, 8, 9 (workload x scheme matrix)")
		m, err := RunMatrix(opts)
		if err != nil {
			return rep, err
		}
		rep.Matrix = m
		rep.Fig7a, rep.Fig7b, rep.Fig8, rep.Fig9 = Figure7a(m), Figure7b(m), Figure8(m), Figure9(m)
		rep.Headline = ComputeHeadline(m)
		render("figure7a", rep.Fig7a)
		fmt.Fprintln(w)
		render("figure7b", rep.Fig7b)
		fmt.Fprintln(w)
		render("figure8", rep.Fig8)
		fmt.Fprintln(w)
		render("figure9", rep.Fig9)
		fmt.Fprintln(w)
		fmt.Fprint(w, FormatHeadline(rep.Headline))
		// §IV-C read-path profile, averaged over the HOOP cells.
		var agg Metrics
		agg.Counters = map[string]int64{}
		for _, wl := range m.Workloads {
			c := m.Cells[wl][engine.SchemeHOOP]
			for k, v := range c.Counters {
				agg.Counters[k] += v
			}
		}
		rep.Profile = ComputeReadProfile(agg)
		fmt.Fprintf(w, "Read-path profile (§IV-C): %.2f loads/LLC-miss, %.1f%% parallel reads, %.1f%% LLC miss ratio, %.1f%% eviction-buffer hits\n",
			rep.Profile.LoadsPerLLCMiss, rep.Profile.ParallelReadFrac*100,
			rep.Profile.LLCMissRatio*100, rep.Profile.EvictBufHitFrac*100)
		fmt.Fprint(w, FormatPhaseBreakdown(m))
		fmt.Fprintf(w, "Matrix pool: %s\n", m.Stats)
		if m.Captures > 0 {
			fmt.Fprintf(w, "Matrix captures: %d captures for %d cells (executed %d)\n",
				m.Captures, m.Stats.Cells, m.CapturesRun)
		}
		if cache != nil {
			fmt.Fprintf(w, "Matrix cache: %d/%d cells cached (executed %d) in %s\n",
				m.Stats.Cached, m.Stats.Cells, m.Stats.Cells-m.Stats.Cached, opts.CacheDir)
		}
		done()
	}

	if want["tableIV"] {
		done := stamp("tableIV", "Table IV (GC data reduction)")
		g, err := TableIV(opts)
		if err != nil {
			return rep, err
		}
		rep.TableIV = g
		render("tableIV", g)
		done()
	}

	if want["fig10"] {
		done := stamp("fig10", "Figure 10 (GC period sweep)")
		g, err := Figure10(opts)
		if err != nil {
			return rep, err
		}
		rep.Fig10 = g
		render("figure10", g)
		done()
	}

	if want["fig11"] {
		done := stamp("fig11", "Figure 11 (parallel recovery)")
		g, rrep, err := Figure11(opts)
		if err != nil {
			return rep, err
		}
		rep.Fig11 = g
		render("figure11", g)
		fmt.Fprintf(w, "functional recovery: %d committed txs, %d slices scanned, %d words restored (verified replay)\n",
			rrep.CommittedTxs, rrep.SlicesScanned, rrep.WordsRecovered)
		done()
	}

	if want["fig12"] {
		done := stamp("fig12", "Figure 12 (NVM latency sensitivity)")
		g, err := Figure12(opts)
		if err != nil {
			return rep, err
		}
		rep.Fig12 = g
		render("figure12", g)
		done()
	}

	if want["fig13"] {
		done := stamp("fig13", "Figure 13 (mapping-table size sensitivity)")
		g, err := Figure13(opts)
		if err != nil {
			return rep, err
		}
		rep.Fig13 = g
		render("figure13", g)
		done()
	}

	if want["sweep-valsize"] {
		done := stamp("sweep-valsize", "Sweep: throughput vs value size (64 B - 64 KB)")
		g, err := SweepValSize(opts)
		if err != nil {
			return rep, err
		}
		rep.SweepValSize = g
		render("sweep-valsize", g)
		done()
	}

	if want["sweep-scan"] {
		done := stamp("sweep-scan", "Sweep: throughput vs range-scan fraction")
		g, err := SweepScanFrac(opts)
		if err != nil {
			return rep, err
		}
		rep.SweepScan = g
		render("sweep-scan", g)
		done()
	}

	if want["contention"] {
		done := stamp("contention", "Contention sweep (cc policies: OCC vs wound-wait 2PL)")
		tput, aborts, err := ContentionFigure(opts)
		if err != nil {
			return rep, err
		}
		rep.Contention, rep.ContentionAborts = tput, aborts
		render("contention-throughput", tput)
		fmt.Fprintln(w)
		render("contention-aborts", aborts)
		done()
	}

	if want["area"] {
		done := stamp("area", "Area overhead (§III-H)")
		RenderArea(w)
		done()
	}

	if want["ablation"] {
		done := stamp("ablation", "Ablation (packing / coalescing / condensed mapping)")
		g, err := Ablation(opts)
		if err != nil {
			return rep, err
		}
		render("ablation", g)
		done()
	}

	if want["wear"] {
		done := stamp("wear", "Uniform wear (§III-D)")
		rep2, err := Wear(opts)
		if err != nil {
			return rep, err
		}
		RenderWear(w, rep2)
		done()
	}

	if want["fig7-9-1k"] {
		done := stamp("fig7-9-1k", "Figures 7-9 on the 1 KB-item data sets")
		m, err := runMatrix(opts, "fig7-9-1k", workload.LargeItemSuite(opts.WL), engine.AllSchemes)
		if err != nil {
			return rep, err
		}
		render("figure7a-1k", Figure7a(m))
		fmt.Fprintln(w)
		render("figure8-1k", Figure8(m))
		done()
	}
	if s := cache.statsReport(); s != "" {
		fmt.Fprintf(w, "\n%s", s)
	}
	return rep, nil
}

// statsReport renders the per-section accounting block for the end-of-run
// report; empty when the cache saw no traffic.
func (cc *cellCache) statsReport() string {
	if cc == nil || len(cc.order) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cell cache (%s):\n", cc.dir)
	var tot cacheStats
	for _, name := range cc.order {
		s := cc.stats[name]
		fmt.Fprintf(&b, "  %-14s %d hits, %d misses, %s read, %s written\n",
			name+":", s.Hits, s.Misses, fmtBytes(s.BytesRead), fmtBytes(s.BytesWritten))
		tot.Hits += s.Hits
		tot.Misses += s.Misses
		tot.BytesRead += s.BytesRead
		tot.BytesWritten += s.BytesWritten
	}
	if len(cc.order) > 1 {
		fmt.Fprintf(&b, "  %-14s %d hits, %d misses, %s read, %s written\n",
			"total:", tot.Hits, tot.Misses, fmtBytes(tot.BytesRead), fmtBytes(tot.BytesWritten))
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// SaveGridJSON writes a grid's JSON artifact to dir/<slug>.json, creating
// the directory if needed.
func SaveGridJSON(dir, slug string, g *Grid) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := g.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, slug+".json"), data, 0o644)
}
