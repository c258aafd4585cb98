// Command hoopbench regenerates the HOOP paper's evaluation: every table
// and figure of §IV, rendered as text. By default it runs the full-size
// experiments (a few minutes); -quick shrinks them to seconds.
//
// Usage:
//
//	hoopbench [-quick] [-seed N] [-workers N] [-trace out.jsonl]
//	          [-workloads ycsb-a,ycsb-e] [-suite ycsb]
//	          [-sections tables,fig7-9,tableIV,fig10,fig11,fig12,fig13,sweep-valsize,sweep-scan,contention,area]
//	          [-cachedir dir] [-cachestats]
//	          [-cpuprofile out.pprof] [-memprofile out.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hoop/internal/clihelp"
	"hoop/internal/harness"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

func main() {
	common := clihelp.Common{Seed: 1}
	common.Register(flag.CommandLine, clihelp.FlagSeed, clihelp.FlagWorkers, clihelp.FlagTrace,
		clihelp.FlagProfile, clihelp.FlagWorkloads)
	quick := flag.Bool("quick", false, "run reduced-size experiments (seconds instead of minutes)")
	charts := flag.Bool("charts", false, "also render each grid as ASCII bar charts")
	artifacts := flag.String("artifacts", "", "directory to write per-figure JSON artifacts into")
	cachedir := flag.String("cachedir", "", "directory memoizing cells across runs (created if missing; reruns only execute cells whose inputs changed)")
	cachestats := flag.Bool("cachestats", false, "print an inventory of -cachedir (entry kinds, bytes, orphaned temps) and exit")
	sections := flag.String("sections", strings.Join(harness.AllSections, ","),
		"comma-separated experiment sections to run (extras: "+strings.Join(harness.ExtraSections, ", ")+")")
	flag.Parse()
	if *cachestats {
		if *cachedir == "" {
			fmt.Fprintln(os.Stderr, "hoopbench: -cachestats needs -cachedir")
			os.Exit(2)
		}
		inv, err := harness.ReadCacheInventory(*cachedir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Cell cache inventory (%s):\n%s\n", *cachedir, inv)
		return
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	suite, err := common.ResolveSuite(workload.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
		os.Exit(2)
	}
	opts := harness.Options{Quick: *quick, Seed: common.Seed, Charts: *charts, ArtifactDir: *artifacts,
		Workers: common.Workers, CacheDir: *cachedir,
		Suite: suite}
	if common.Trace != "" {
		opts.Trace = &telemetry.CellTrace{}
	}
	var secs []string
	for _, s := range strings.Split(*sections, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		known := false
		for _, k := range append(harness.AllSections, harness.ExtraSections...) {
			if s == k {
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown section %q (known: %s)\n", s,
				strings.Join(append(harness.AllSections, harness.ExtraSections...), ", "))
			os.Exit(2)
		}
		secs = append(secs, s)
	}

	fmt.Printf("HOOP reproduction benchmark harness (quick=%v, seed=%d, workers=%d)\n",
		*quick, common.Seed, common.EffectiveWorkers())
	start := time.Now()
	if _, err := harness.RunSections(os.Stdout, opts, secs); err != nil {
		fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
		os.Exit(1)
	}
	if opts.Trace != nil {
		f, err := os.Create(common.Trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hoopbench: -trace: %v\n", err)
			os.Exit(1)
		}
		if _, err := opts.Trace.WriteTo(f); err != nil {
			fmt.Fprintf(os.Stderr, "hoopbench: -trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hoopbench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry trace: %d cells written to %s\n", opts.Trace.Len(), common.Trace)
	}
	fmt.Printf("\ntotal wall-clock: %.1fs\n", time.Since(start).Seconds())
}
