package harness

import (
	"fmt"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// Contention-figure geometry: every cell runs the shared-pool Zipfian
// read-modify-write workload (workload.Contention) through the cc layer,
// so transactions genuinely conflict and the policy (OCC validation or
// wound-wait locking) arbitrates. The sweep crosses Zipfian skew with
// thread count for every scheme under both policies: skew concentrates
// traffic on fewer lines, threads add requesters per line, and the abort
// path's durable cost — HOOP drops SRAM slices for free while undo logging
// replays images home — separates the schemes.
var (
	contentionThetas  = []float64{0.5, 0.9, 1.2}
	contentionThreads = []int{2, 4, 8}
)

const (
	contentionKeys     = 256 // shared pool words
	contentionOpsPerTx = 4   // read-modify-write pairs per transaction
)

// contentionTxs reports committed transactions per contention cell.
func contentionTxs(o Options) int {
	if o.Quick {
		return 800
	}
	return 6000
}

// contentionPoint is the cell for one (scheme, policy, theta, threads)
// sweep point. The workload's NeedsAbort makes its system abortable.
func contentionPoint(scheme string, pol cc.Policy, theta float64, threads int, opts Options) Cell {
	return Cell{
		Scheme:   scheme,
		Workload: workload.Contention{Keys: contentionKeys, OpsPerTx: contentionOpsPerTx, Theta: theta}.Workload(),
		Txs:      contentionTxs(opts),
		Seed:     opts.Seed,
		Policy:   pol,
		Mut:      func(cfg *engine.Config) { cfg.Threads = threads },
	}
}

// contentionColName renders one sweep point.
func contentionColName(theta float64, threads int) string {
	return fmt.Sprintf("z%.1f/t%d", theta, threads)
}

// ContentionFigure sweeps Zipfian skew × thread count for every scheme
// under both concurrency-control policies and returns the throughput grid
// (Ktx/s) and the abort-rate grid (% of transaction attempts aborted).
func ContentionFigure(opts Options) (*Grid, *Grid, error) {
	var rows []string
	var cells []Cell
	for _, scheme := range engine.AllSchemes {
		for _, pol := range cc.Policies {
			rows = append(rows, scheme+"/"+string(pol))
			for _, theta := range contentionThetas {
				for _, n := range contentionThreads {
					c := contentionPoint(scheme, pol, theta, n, opts)
					if opts.Trace != nil {
						c.Sink = opts.Trace.Add(fmt.Sprintf("contention/%s/%s/%s", scheme, pol, contentionColName(theta, n)))
					}
					cells = append(cells, c)
				}
			}
		}
	}
	metrics, _, err := runCellsCached(cells, opts)
	if err != nil {
		return nil, nil, err
	}
	var cols []string
	for _, theta := range contentionThetas {
		for _, n := range contentionThreads {
			cols = append(cols, contentionColName(theta, n))
		}
	}
	tput := &Grid{
		Title:   "Contention sweep: throughput (Ktx/s) vs Zipfian theta (z) and threads (t)",
		RowName: "Scheme/Policy",
		Rows:    rows,
		Cols:    cols,
		Format:  "%.1f",
	}
	aborts := &Grid{
		Title:   "Contention sweep: abort rate (% of tx attempts) vs Zipfian theta (z) and threads (t)",
		RowName: "Scheme/Policy",
		Rows:    rows,
		Cols:    cols,
		Format:  "%.2f",
	}
	k := 0
	for range rows {
		tr := make([]float64, len(cols))
		ar := make([]float64, len(cols))
		for j := range cols {
			m := metrics[k]
			k++
			tr[j] = m.Throughput() / 1e3
			ar[j] = m.AbortRate() * 100
		}
		tput.Cells = append(tput.Cells, tr)
		aborts.Cells = append(aborts.Cells, ar)
	}
	return tput, aborts, nil
}
