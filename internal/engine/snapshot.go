package engine

import (
	"hoop/internal/sim"
)

// RunSnapshot is the full externally visible result of a run at one
// instant: transaction, operation, latency, energy, and counter totals.
// It replaces the old pile of per-metric System accessors
// (TxCount/TxLatencySum/Ops/...) with one plain value that is cheap to
// take, comparable across snapshots, and JSON-marshalable for artifacts.
//
// Snapshots taken before and after a measurement window subtract with
// Delta; the latency quantiles are distribution-shaped and therefore
// always describe the whole run so far, not a window.
type RunSnapshot struct {
	// Scheme is the persistence scheme name ("HOOP", "Opt-Redo", ...).
	Scheme string `json:"scheme"`
	// Threads is the number of workload threads.
	Threads int `json:"threads"`
	// Span is the latest thread clock — the simulated wall-clock so far.
	Span sim.Time `json:"span_ps"`
	// Txs counts committed transactions.
	Txs int64 `json:"txs"`
	// Aborts counts aborted transactions (Env.TxAbort; conflict aborts
	// under a concurrency-control policy land here).
	Aborts int64 `json:"aborts"`
	// Loads and Stores count workload memory operations.
	Loads  int64 `json:"loads"`
	Stores int64 `json:"stores"`
	// TxLatencySum is the summed critical-path latency of all committed
	// transactions (Tx_begin to durable Tx_end, §IV-C).
	TxLatencySum sim.Duration `json:"tx_latency_sum_ps"`
	// TxLatencyP50/P90/P99 are critical-path latency quantiles over every
	// transaction so far (log-bucketed; see sim.Histogram).
	TxLatencyP50 sim.Duration `json:"tx_latency_p50_ps"`
	TxLatencyP90 sim.Duration `json:"tx_latency_p90_ps"`
	TxLatencyP99 sim.Duration `json:"tx_latency_p99_ps"`
	// ReadEnergyPJ and WriteEnergyPJ are the NVM device energies.
	ReadEnergyPJ  float64 `json:"read_energy_pj"`
	WriteEnergyPJ float64 `json:"write_energy_pj"`
	// Counters holds every registered stats counter in registration order.
	Counters []sim.CounterSample `json:"counters"`
}

// Snapshot captures the system's current totals.
func (s *System) Snapshot() RunSnapshot {
	if s.detached {
		panic("engine: Snapshot of a detached system")
	}
	return RunSnapshot{
		Scheme:        s.scheme.Name(),
		Threads:       s.cfg.Threads,
		Span:          s.MaxClock(),
		Txs:           s.txCount,
		Aborts:        s.txAborts,
		Loads:         s.loadOps,
		Stores:        s.storeOps,
		TxLatencySum:  s.txLatSum,
		TxLatencyP50:  s.txLatHist.Quantile(0.50),
		TxLatencyP90:  s.txLatHist.Quantile(0.90),
		TxLatencyP99:  s.txLatHist.Quantile(0.99),
		ReadEnergyPJ:  s.dev.ReadEnergyPJ(),
		WriteEnergyPJ: s.dev.WriteEnergyPJ(),
		Counters:      s.stats.Snapshot(),
	}
}

// AvgTxLatency reports the mean critical-path latency of the snapshot.
func (r RunSnapshot) AvgTxLatency() sim.Duration {
	if r.Txs == 0 {
		return 0
	}
	return r.TxLatencySum / sim.Duration(r.Txs)
}

// TotalEnergyPJ reports combined read+write NVM energy.
func (r RunSnapshot) TotalEnergyPJ() float64 { return r.ReadEnergyPJ + r.WriteEnergyPJ }

// Counter reports the named stats counter's value, zero if absent. The
// scan is linear: snapshots hold a few dozen counters and are consumed
// off the hot path.
func (r RunSnapshot) Counter(name string) int64 {
	for _, c := range r.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// CounterMap returns the counters as a name-keyed map, for consumers that
// diff or join them.
func (r RunSnapshot) CounterMap() map[string]int64 {
	out := make(map[string]int64, len(r.Counters))
	for _, c := range r.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// Delta returns the window r-before: cumulative totals subtracted
// counter-by-counter. Quantiles and scheme identity are taken from r —
// they describe distributions and configuration, not windows. Counters
// registered after the before-snapshot keep their full value.
func (r RunSnapshot) Delta(before RunSnapshot) RunSnapshot {
	out := r
	out.Span = r.Span - before.Span
	out.Txs = r.Txs - before.Txs
	out.Aborts = r.Aborts - before.Aborts
	out.Loads = r.Loads - before.Loads
	out.Stores = r.Stores - before.Stores
	out.TxLatencySum = r.TxLatencySum - before.TxLatencySum
	out.ReadEnergyPJ = r.ReadEnergyPJ - before.ReadEnergyPJ
	out.WriteEnergyPJ = r.WriteEnergyPJ - before.WriteEnergyPJ
	prev := before.CounterMap()
	out.Counters = make([]sim.CounterSample, len(r.Counters))
	for i, c := range r.Counters {
		out.Counters[i] = sim.CounterSample{Name: c.Name, Value: c.Value - prev[c.Name]}
	}
	return out
}
