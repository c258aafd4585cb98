package workload

import (
	"fmt"

	"hoop/internal/cc"
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// Contention is the shared-key workload for the concurrency-control layer:
// unlike the Table III suite, whose threads run over disjoint arena slices
// and never conflict, every thread here issues read-modify-write
// transactions against one shared Zipfian-skewed word pool, so
// transactions genuinely collide and the cc policy (OCC validation or
// wound-wait locking) must arbitrate. Theta turns the contention knob:
// higher skew concentrates the traffic on fewer cache lines.
type Contention struct {
	// Keys is the shared pool: word i lives at home address i*8.
	Keys int
	// OpsPerTx is the number of read-modify-write pairs per transaction.
	OpsPerTx int
	// Theta is the Zipfian skew (0.99 = YCSB default).
	Theta float64
}

// Name renders the workload for figure rows.
func (c Contention) Name() string {
	return fmt.Sprintf("rmw-zipf(keys=%d,ops=%d,theta=%.2f)", c.Keys, c.OpsPerTx, c.Theta)
}

// Workload expresses c as a harness cell workload: its name and resolved
// Opts identify it to the cell cache, and NeedsAbort makes the cell's
// system abortable, which the cc layer requires. It has no Build: its
// transactions run through a cc.Runner over Sources, never through
// engine.TxRunners.
func (c Contention) Workload() Workload {
	return Workload{
		Name:       c.Name(),
		Opts:       Options{Keys: c.Keys, OpsPerTx: c.OpsPerTx, Theta: c.Theta},
		NeedsAbort: true,
	}
}

// ContentionOf recovers the Contention a Workload built by
// Contention.Workload describes; ok is false for every other workload.
func ContentionOf(w Workload) (c Contention, ok bool) {
	c = Contention{Keys: w.Opts.Keys, OpsPerTx: w.Opts.OpsPerTx, Theta: w.Opts.Theta}
	return c, w.Build == nil && w.Name == c.Name()
}

// Sources builds one cc.TxSource per thread. All randomness is drawn in
// Next, outside the returned body, so an aborted attempt retries with the
// same keys and deltas; deterministic given (threads, seed). Each source
// refills one keys/deltas buffer in place and returns the same body every
// time, so Next allocates nothing: the Runner is done with a body before
// it calls Next again.
func (c Contention) Sources(threads int, seed uint64) []cc.TxSource {
	srcs := make([]cc.TxSource, threads)
	for i := range srcs {
		rng := sim.NewRand(seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
		zipf := NewZipf(rng, uint64(c.Keys), c.Theta)
		keys := make([]mem.PAddr, c.OpsPerTx)
		deltas := make([]uint64, c.OpsPerTx)
		body := func(tx cc.Tx) {
			for j := range keys {
				v := tx.ReadWord(keys[j])
				tx.WriteWord(keys[j], v+deltas[j])
			}
		}
		srcs[i] = cc.TxSourceFunc(func() cc.TxFunc {
			for j := range keys {
				keys[j] = mem.PAddr(zipf.Next() * mem.WordSize)
				deltas[j] = rng.Uint64()%1000 + 1
			}
			return body
		})
	}
	return srcs
}
