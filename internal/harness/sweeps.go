package harness

import (
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// The value-size and scan-fraction sweeps extend the paper's sensitivity
// studies (Figures 12/13) along two axes it does not plot: object size —
// HOOP's slice packing and the log-structured baselines behave very
// differently at 64 B than at 64 KB — and range-scan share, which the
// YCSB A–F suite's ordered backend makes measurable. Both run through the
// shared matrix pipeline, so they inherit record-once/replay-many
// execution, the cell cache, and bit-identical results at every worker
// count.

// sweepOpts sizes the sweep cells. A 64 KB-value transaction moves three
// orders of magnitude more data than a 64 B one, so the sweeps run far
// fewer transactions per cell than the figure matrix (the mean stabilizes
// long before the figure matrix's counts), and quick mode additionally
// caps the key space.
func sweepOpts(opts Options) Options {
	if opts.TxsPerCell == 0 {
		if opts.Quick {
			opts.TxsPerCell = 250
		} else {
			opts.TxsPerCell = 3000
		}
	}
	if opts.Quick && opts.WL.Keys == 0 {
		opts.WL.Keys = 1024
	}
	return opts
}

// SweepValSize measures YCSB-A throughput for every scheme as the value
// size grows 64 B → 64 KB (key counts shrink to hold the data-set size,
// see workload.ValSizeSweepSuite).
func SweepValSize(opts Options) (*Grid, error) {
	opts = sweepOpts(opts)
	m, err := runMatrix(opts, "sweep-valsize", workload.ValSizeSweepSuite(opts.WL), engine.AllSchemes)
	if err != nil {
		return nil, err
	}
	return matrixGrid(m, "Sweep: YCSB-A throughput (Ktx/s) vs value size", "%.1f", "", sweepKtxs), nil
}

// SweepScanFrac measures scan-workload throughput for every scheme as the
// range-scan share of the mix grows 0% → 95% (the remainder is updates).
func SweepScanFrac(opts Options) (*Grid, error) {
	opts = sweepOpts(opts)
	m, err := runMatrix(opts, "sweep-scan", workload.ScanSweepSuite(opts.WL), engine.AllSchemes)
	if err != nil {
		return nil, err
	}
	return matrixGrid(m, "Sweep: throughput (Ktx/s) vs range-scan fraction", "%.1f", "", sweepKtxs), nil
}

// sweepKtxs is a sweep grid's cell value: absolute throughput in Ktx/s.
func sweepKtxs(c Metrics) float64 { return c.Throughput() / 1e3 }
