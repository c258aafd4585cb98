// Command hoopsim runs one workload on one persistence scheme and prints
// the measured metrics plus the raw counter dump — the single-configuration
// probe for exploring the simulator. The run is one harness.Cell, so every
// number covers the same quiesced measurement window hoopbench reports.
//
// Usage:
//
//	hoopsim [-scheme HOOP] [-workload hashmap-64] [-txs 20000] [-threads 8] [-seed 1]
//	        [-trace out.jsonl] [-stats] [-cpuprofile out.pprof] [-memprofile out.pprof]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hoop/internal/clihelp"
	"hoop/internal/engine"
	"hoop/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hoopsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoopsim", flag.ContinueOnError)
	common := clihelp.Common{Scheme: engine.SchemeHOOP, Seed: 1}
	common.Register(fs, clihelp.FlagScheme, clihelp.FlagSeed, clihelp.FlagTrace, clihelp.FlagProfile)
	wlName := fs.String("workload", "hashmap-64", "workload name from Table III (e.g. vector-64, ycsb-1k, tpcc)")
	txs := fs.Int("txs", 20000, "transactions to execute")
	threads := fs.Int("threads", 8, "workload threads")
	dumpStats := fs.Bool("stats", false, "dump every raw counter of the measured window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()

	wl, ok := clihelp.FindWorkload(*wlName)
	if !ok {
		names := ""
		for _, n := range clihelp.WorkloadNames() {
			names += "\n  " + n
		}
		return fmt.Errorf("unknown workload %q; available:%s", *wlName, names)
	}

	cell := harness.Cell{Scheme: common.Scheme, Workload: wl, Txs: *txs, Seed: common.Seed,
		Mut: func(cfg *engine.Config) { cfg.Threads = *threads }}
	tf, err := common.OpenTrace()
	if err != nil {
		return err
	}
	if tf != nil {
		cell.Sink = tf.Sink
	}
	fmt.Fprintf(out, "scheme=%s workload=%s threads=%d txs=%d\n", common.Scheme, wl.Name, *threads, *txs)
	mets, _, err := harness.RunCells([]harness.Cell{cell}, 1)
	if err != nil {
		tf.Close()
		return err
	}
	m := mets[0]

	fmt.Fprintf(out, "\nresults over %d transactions:\n", m.Txs)
	fmt.Fprintf(out, "  simulated span     %v\n", m.Span)
	fmt.Fprintf(out, "  throughput         %.3f M tx/s\n", m.Throughput()/1e6)
	fmt.Fprintf(out, "  avg tx latency     %v\n", m.AvgLatency())
	fmt.Fprintf(out, "  latency p50/p90/p99 %v / %v / %v\n",
		m.LatencyQuantile(0.50), m.LatencyQuantile(0.90), m.LatencyQuantile(0.99))
	fmt.Fprintf(out, "  NVM bytes written  %d (%.0f per tx)\n", m.BytesWritten, m.WritesPerTx())
	fmt.Fprintf(out, "  NVM energy         %.1f uJ\n", m.EnergyPJ/1e6)
	fmt.Fprintf(out, "  ops                %d loads, %d stores\n", m.Loads, m.Stores)
	if *dumpStats {
		names := make([]string, 0, len(m.Counters))
		for k := range m.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "\ncounters:\n")
		for _, k := range names {
			fmt.Fprintf(out, "%-40s %d\n", k, m.Counters[k])
		}
	}
	return tf.Close()
}
