package cc

import (
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// newTestRunner builds an abortable Native system with the given thread
// count and a Runner over it.
func newTestRunner(tb testing.TB, policy Policy, threads int) *Runner {
	tb.Helper()
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = threads, threads, threads
	cfg.Ctrl.Agents = 3
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(sys, Config{Policy: policy})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// benchRunner builds a Runner with the given thread count, each thread
// running a fixed 4-word read-modify-write source on its own cache line
// (so threads never conflict) whose Next allocates nothing: steady-state
// measurements see only the policy's and the step handoff's own cost.
func benchRunner(tb testing.TB, policy Policy, threads int) (*Runner, []TxSource) {
	tb.Helper()
	r := newTestRunner(tb, policy, threads)
	srcs := make([]TxSource, threads)
	for i := range srcs {
		base := mem.PAddr(i * mem.LineSize)
		body := func(tx Tx) {
			for w := 0; w < 4; w++ {
				a := base + mem.PAddr(w*mem.WordSize)
				v := tx.ReadWord(a)
				tx.WriteWord(a, v+1)
			}
		}
		srcs[i] = TxSourceFunc(func() TxFunc { return body })
	}
	return r, srcs
}

// perTxAllocs measures steady-state allocations per committed transaction
// on one thread: a warmup run grows every reused structure (write buffer,
// read set, validation scratch, lock table, held-lock set) to its steady
// size, then a long measured run amortizes the per-Run overhead (the quota
// slice and each thread's iter.Pull coroutine, 13 allocations for one
// thread) below 0.05 allocs/tx. A lone thread picks itself at every step
// boundary and never parks; a handoff between threads is a coroutine
// switch, which allocates nothing either (simbench's cc_2pl_tx4_t4).
func perTxAllocs(tb testing.TB, policy Policy) float64 {
	r, srcs := benchRunner(tb, policy, 1)
	r.Run(srcs, 200)
	const txs = 1000
	return testing.AllocsPerRun(1, func() { r.Run(srcs, txs) }) / txs
}

// TestOCCValidateAllocBudget locks the OCC commit path's allocation
// budget: validation reuses its scratch key buffer and the write buffer /
// read set are epoch-cleared maps, so a committed transaction stays within
// 1 allocation end to end.
func TestOCCValidateAllocBudget(t *testing.T) {
	if got := perTxAllocs(t, PolicyOCC); got > 1 {
		t.Errorf("OCC: %.3f allocs per committed tx, budget is 1", got)
	}
}

// TestLockTableAllocBudget locks the 2PL steady-state budget at zero:
// lock-table entries are never deleted and the held-lock set is reused, so
// once the table covers the working set, acquire/release allocates nothing.
func TestLockTableAllocBudget(t *testing.T) {
	// The strict-zero budget leaves only the amortized per-Run overhead.
	if got := perTxAllocs(t, Policy2PL); got > 0.05 {
		t.Errorf("2PL: %.3f allocs per committed tx, steady-state budget is 0", got)
	}
}
