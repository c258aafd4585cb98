package cc

import (
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// newTestRunner builds an abortable Native system with the given thread
// count and a Runner over it.
func newTestRunner(tb testing.TB, policy Policy, threads int) *Runner {
	tb.Helper()
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = threads, threads, threads
	cfg.Ctrl.Agents = threads + 2
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
// running a fixed 4-word read-modify-write program on its own cache line
// (so threads never conflict) whose Next allocates nothing: steady-state
// measurements see only the policy's and the step loop's own cost.
func benchRunner(tb testing.TB, policy Policy, threads int) (*Runner, []TxSource) {
	tb.Helper()
	r := newTestRunner(tb, policy, threads)
	srcs := make([]TxSource, threads)
	for i := range srcs {
		base := mem.PAddr(i * mem.LineSize)
		var prog []Step
		for w := 0; w < 4; w++ {
			a := base + mem.PAddr(w*mem.WordSize)
			prog = append(prog, Step{Kind: OpRead, Addr: a}, Step{Kind: OpWrite, Addr: a, Add: 1})
		}
		srcs[i] = TxSourceFunc(func() []Step { return prog })
	}
	return r, srcs
}

// contendedRunner builds an 8-thread Runner whose threads all run
// two-pair read-modify-write transactions over one hot 16-word pool (two
// cache lines), so nearly every transaction conflicts: 2PL threads block,
// wound and retry, and OCC validations fail. Each source draws its words
// from its own seeded generator and refills one program in place, so
// Next allocates nothing.
func contendedRunner(tb testing.TB, policy Policy) (*Runner, []TxSource) {
	tb.Helper()
	const threads, poolWords, pairs = 8, 16, 2
	r := newTestRunner(tb, policy, threads)
	srcs := make([]TxSource, threads)
	for i := range srcs {
		rng := sim.NewRand(uint64(i) + 1)
		prog := make([]Step, 2*pairs)
		srcs[i] = TxSourceFunc(func() []Step {
			for j := 0; j < len(prog); j += 2 {
				a := mem.PAddr(rng.Intn(poolWords) * mem.WordSize)
				prog[j] = Step{Kind: OpRead, Addr: a}
				prog[j+1] = Step{Kind: OpWrite, Addr: a, Add: 1}
			}
			return prog
		})
	}
	return r, srcs
}

// TestContendedRunAlloc locks a whole contended Run at zero allocations
// under both policies once a warmup run has grown every reused structure:
// blocking, wounding, aborting and retrying reuse the same state as the
// conflict-free path.
func TestContendedRunAlloc(t *testing.T) {
	for _, policy := range Policies {
		r, srcs := contendedRunner(t, policy)
		r.Run(srcs, 400)
		if got := testing.AllocsPerRun(5, func() { r.Run(srcs, 200) }); got != 0 {
			t.Errorf("%s: %.1f allocs per contended Run of 200 transactions, budget is 0", policy, got)
		}
	}
}

// checkRunAllocs locks a whole Run at zero allocations once a warmup run
// has grown every reused structure (write buffer, read set, validation
// scratch, lock table, held-lock set) to its steady size: Run keeps its
// per-thread quota and program counter in the thread, and a step passes
// between threads by a plain call, so there is no per-Run overhead to
// amortize. It runs one thread, which picks itself at every step, and
// four threads on disjoint lines, where the step passes from thread to
// thread at nearly every boundary.
func checkRunAllocs(t *testing.T, policy Policy) {
	for _, threads := range []int{1, 4} {
		r, srcs := benchRunner(t, policy, threads)
		r.Run(srcs, 200)
		if got := testing.AllocsPerRun(5, func() { r.Run(srcs, 100) }); got != 0 {
			t.Errorf("%s with %d threads: %.1f allocs per Run of 100 transactions, budget is 0", policy, threads, got)
		}
	}
}

// TestOCCValidateAllocBudget locks the OCC path's allocation budget at
// zero: validation reuses its scratch key buffer and the write buffer /
// read set are epoch-cleared maps.
func TestOCCValidateAllocBudget(t *testing.T) { checkRunAllocs(t, PolicyOCC) }

// TestLockTableAllocBudget locks the 2PL budget at zero: lock-table
// entries are never deleted and the held-lock set is reused, so once the
// table covers the working set, acquire/release allocates nothing.
func TestLockTableAllocBudget(t *testing.T) { checkRunAllocs(t, Policy2PL) }
