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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"hoop/internal/clihelp"
	"hoop/internal/harness"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(usageError)):
		fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "hoopbench: %v\n", err)
		os.Exit(1)
	}
}

// usageError marks a bad command line; main exits 2 for it, as package
// flag does.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// run parses args, runs the requested sections and writes the report to
// out. Profiles start before the sections are validated and stop on every
// return, so an error exit still leaves both profile files.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoopbench", flag.ContinueOnError)
	common := clihelp.Common{Seed: 1}
	common.Register(fs, clihelp.FlagSeed, clihelp.FlagWorkers, clihelp.FlagTrace,
		clihelp.FlagProfile, clihelp.FlagWorkloads)
	quick := fs.Bool("quick", false, "run reduced-size experiments (seconds instead of minutes)")
	charts := fs.Bool("charts", false, "also render each grid as ASCII bar charts")
	artifacts := fs.String("artifacts", "", "directory to write per-figure JSON artifacts into")
	cachedir := fs.String("cachedir", "", "directory memoizing cells across runs (created if missing; reruns only execute cells whose inputs changed)")
	cachestats := fs.Bool("cachestats", false, "print an inventory of -cachedir (entry kinds, bytes, orphaned temps) and exit")
	sections := fs.String("sections", strings.Join(harness.AllSections, ","),
		"comma-separated experiment sections to run (extras: "+strings.Join(harness.ExtraSections, ", ")+")")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if err := clihelp.CheckArgs(fs); err != nil {
		return usageError{err}
	}
	if *cachestats {
		if *cachedir == "" {
			return usageError{errors.New("-cachestats needs -cachedir")}
		}
		inv, err := harness.ReadCacheInventory(*cachedir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Cell cache inventory (%s):\n%s\n", *cachedir, inv)
		return nil
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	suite, err := common.ResolveSuite(workload.Options{})
	if err != nil {
		return usageError{err}
	}
	opts := harness.Options{Quick: *quick, Seed: common.Seed, Charts: *charts, ArtifactDir: *artifacts,
		Workers: common.Workers, CacheDir: *cachedir,
		Suite: suite}
	if common.Trace != "" {
		opts.Trace = &telemetry.CellTrace{}
	}
	known := slices.Concat(harness.AllSections, harness.ExtraSections)
	var secs []string
	for _, s := range strings.Split(*sections, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !slices.Contains(known, s) {
			return usageError{fmt.Errorf("unknown section %q (known: %s)", s, strings.Join(known, ", "))}
		}
		secs = append(secs, s)
	}

	fmt.Fprintf(out, "HOOP reproduction benchmark harness (quick=%v, seed=%d, workers=%d)\n",
		*quick, common.Seed, common.EffectiveWorkers())
	start := time.Now()
	if _, err := harness.RunSections(out, opts, secs); err != nil {
		return err
	}
	if opts.Trace != nil {
		f, err := os.Create(common.Trace)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		_, err = opts.Trace.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Fprintf(out, "telemetry trace: %d cells written to %s\n", opts.Trace.Len(), common.Trace)
	}
	fmt.Fprintf(out, "\ntotal wall-clock: %.1fs\n", time.Since(start).Seconds())
	return nil
}
