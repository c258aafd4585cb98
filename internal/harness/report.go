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
	// grid runs a section that renders one grid, keeping it in *dst
	// unless dst is nil.
	grid := func(slug string, dst **Grid, run func(Options) (*Grid, error)) func() error {
		return func() error {
			g, err := run(opts)
			if err != nil {
				return err
			}
			if dst != nil {
				*dst = g
			}
			render(slug, g)
			return nil
		}
	}
	all := []struct {
		name, title string
		run         func() error
	}{
		{"tables", "Tables I-III", func() error {
			RenderTableI(w)
			fmt.Fprintln(w)
			RenderTableII(w, engine.DefaultConfig(engine.SchemeHOOP))
			fmt.Fprintln(w)
			RenderTableIII(w)
			return nil
		}},
		{"fig7-9", "Figures 7a, 7b, 8, 9 (workload x scheme matrix)", func() error {
			m, err := RunMatrix(opts)
			if err != nil {
				return err
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
			return nil
		}},
		{"tableIV", "Table IV (GC data reduction)", grid("tableIV", &rep.TableIV, TableIV)},
		{"fig10", "Figure 10 (GC period sweep)", grid("figure10", &rep.Fig10, Figure10)},
		{"fig11", "Figure 11 (parallel recovery)", func() error {
			g, rrep, err := Figure11(opts)
			if err != nil {
				return err
			}
			rep.Fig11 = g
			render("figure11", g)
			fmt.Fprintf(w, "functional recovery: %d committed txs, %d slices scanned, %d words restored (verified replay)\n",
				rrep.CommittedTxs, rrep.SlicesScanned, rrep.WordsRecovered)
			return nil
		}},
		{"fig12", "Figure 12 (NVM latency sensitivity)", grid("figure12", &rep.Fig12, Figure12)},
		{"fig13", "Figure 13 (mapping-table size sensitivity)", grid("figure13", &rep.Fig13, Figure13)},
		{"sweep-valsize", "Sweep: throughput vs value size (64 B - 64 KB)", grid("sweep-valsize", &rep.SweepValSize, SweepValSize)},
		{"sweep-scan", "Sweep: throughput vs range-scan fraction", grid("sweep-scan", &rep.SweepScan, SweepScanFrac)},
		{"contention", "Contention sweep (cc policies: OCC vs wound-wait 2PL)", func() error {
			tput, aborts, err := ContentionFigure(opts)
			if err != nil {
				return err
			}
			rep.Contention, rep.ContentionAborts = tput, aborts
			render("contention-throughput", tput)
			fmt.Fprintln(w)
			render("contention-aborts", aborts)
			return nil
		}},
		{"area", "Area overhead (§III-H)", func() error { RenderArea(w); return nil }},
		{"ablation", "Ablation (packing / coalescing / condensed mapping)", grid("ablation", nil, Ablation)},
		{"wear", "Uniform wear (§III-D)", func() error {
			wr, err := Wear(opts)
			if err != nil {
				return err
			}
			RenderWear(w, wr)
			return nil
		}},
		{"fig7-9-1k", "Figures 7-9 on the 1 KB-item data sets", func() error {
			m, err := runMatrix(opts, "fig7-9-1k", workload.LargeItemSuite(opts.WL), engine.AllSchemes)
			if err != nil {
				return err
			}
			render("figure7a-1k", Figure7a(m))
			fmt.Fprintln(w)
			render("figure8-1k", Figure8(m))
			return nil
		}},
	}
	for _, s := range all {
		if !want[s.name] {
			continue
		}
		start := time.Now()
		cache.setSection(s.name)
		fmt.Fprintf(w, "\n==== %s ====\n", s.title)
		if err := s.run(); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "(%s computed in %.1fs)\n", s.title, time.Since(start).Seconds())
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
