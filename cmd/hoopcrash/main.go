// Command hoopcrash drives the crash-point fault-injection harness from the
// command line: it runs a deterministic transactional workload against one
// or all persistence schemes, crashes it at every journal point (exhaustive
// mode) or at one random point per seeded workload (random mode), and
// checks each recovered image against the prefix-consistency oracle.
//
// On a violation it prints the minimal failing (seed, crash point) pair and
// exits non-zero, so a red CI run reproduces locally with the printed
// flags.
//
// With -workloads or -suite it instead runs the workload-level smoke: each
// selected registry workload (YCSB's scans, read-modify-write aborts, bulk
// inserts included) runs on the full simulated machine, is crashed
// mid-stream, recovered, and verified against the committed-write oracle.
//
// Usage:
//
//	hoopcrash [-scheme all] [-mode exhaustive|random] [-seed 1] [-seeds 200]
//	          [-txs 8] [-words 4] [-pool 96] [-cores 2] [-abortevery 0]
//	          [-workloads ycsb-e,ycsb-f | -suite ycsb] [-smoketxs 400]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hoop/internal/clihelp"
	"hoop/internal/crashtest"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hoopcrash: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoopcrash", flag.ContinueOnError)
	common := clihelp.Common{Seed: 1}
	common.Register(fs, clihelp.FlagSeed, clihelp.FlagWorkloads)
	scheme := fs.String("scheme", "all", "scheme name, or \"all\"")
	smokeTxs := fs.Int("smoketxs", 400, "transactions per workload-smoke run (with -workloads/-suite)")
	mode := fs.String("mode", "exhaustive", "\"exhaustive\" (every crash point of one workload) or \"random\" (one crash point per seed)")
	seeds := fs.Int("seeds", 200, "number of seeds to try in random mode")
	txs := fs.Int("txs", 8, "transactions per workload")
	words := fs.Int("words", 4, "max word writes per transaction")
	pool := fs.Int("pool", 96, "word-address pool size")
	cores := fs.Int("cores", 2, "cores issuing transactions round-robin")
	abortEvery := fs.Int("abortevery", 0, "abort every k-th transaction (0 = none), exposing abort-path crash points")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := clihelp.CheckArgs(fs, "smoketxs", "seeds", "txs", "words", "pool", "cores"); err != nil {
		return err
	}
	if *abortEvery < 0 {
		return fmt.Errorf("-abortevery must be 0 (none) or more, got %d", *abortEvery)
	}

	schemes := crashtest.Schemes()
	if *scheme != "all" {
		found := false
		for _, s := range schemes {
			if s == *scheme {
				found = true
			}
		}
		if !found && *scheme != crashtest.BuggySchemeName && *scheme != crashtest.BuggyAbortLeakName {
			return fmt.Errorf("unknown scheme %q (known: %v)", *scheme, schemes)
		}
		schemes = []string{*scheme}
	}

	suite, err := common.ResolveSuite(workload.Options{})
	if err != nil {
		return err
	}
	if len(suite) > 0 {
		return runSmoke(out, schemes, suite, common.Seed, *smokeTxs)
	}

	w := crashtest.DefaultWorkload(common.Seed)
	w.Txs = *txs
	w.MaxWords = *words
	w.AddrWords = *pool
	w.Cores = *cores
	w.AbortEvery = *abortEvery

	failed := false
	for _, s := range schemes {
		switch *mode {
		case "exhaustive":
			points, v := crashtest.Enumerate(s, w)
			if v != nil {
				failed = true
				fmt.Fprintf(out, "%-16s FAIL  %v\n", s, v)
				fmt.Fprintf(out, "%-16s       repro: hoopcrash -scheme %s -mode exhaustive -seed %d -txs %d -words %d -pool %d -cores %d\n",
					"", s, v.Seed, *txs, *words, *pool, *cores)
			} else {
				fmt.Fprintf(out, "%-16s ok    %d crash points consistent (seed %d)\n", s, points, common.Seed)
			}
		case "random":
			if v := crashtest.RandomSchedules(s, w, common.Seed, *seeds); v != nil {
				failed = true
				fmt.Fprintf(out, "%-16s FAIL  %v\n", s, v)
				fmt.Fprintf(out, "%-16s       repro: hoopcrash -scheme %s -mode random -seed %d -seeds 1 -txs %d -words %d -pool %d -cores %d\n",
					"", s, v.Seed, *txs, *words, *pool, *cores)
			} else {
				fmt.Fprintf(out, "%-16s ok    %d random crash schedules consistent (seeds %d..%d)\n", s, *seeds, common.Seed, common.Seed+uint64(*seeds)-1)
			}
		default:
			return fmt.Errorf("unknown mode %q (want exhaustive or random)", *mode)
		}
	}
	if failed {
		return fmt.Errorf("crash-consistency violations found")
	}
	return nil
}

// runSmoke crashes and recovers every (scheme, workload) pair on the full
// engine. The Ideal scheme is skipped: it has no persistence guarantee.
func runSmoke(out io.Writer, schemes []string, suite []workload.Workload, seed uint64, txs int) error {
	failed := false
	for _, s := range schemes {
		if s == engine.SchemeNative {
			fmt.Fprintf(out, "%-16s skip  no persistence guarantee to verify\n", s)
			continue
		}
		for _, wl := range suite {
			if err := crashtest.Smoke(s, wl, seed, txs); err != nil {
				failed = true
				fmt.Fprintf(out, "%-16s %-12s FAIL  %v\n", s, wl.Name, err)
			} else {
				fmt.Fprintf(out, "%-16s %-12s ok    crash+recover consistent (%d txs, seed %d)\n",
					s, wl.Name, txs, seed)
			}
		}
	}
	if failed {
		return fmt.Errorf("crash-consistency violations found")
	}
	return nil
}
