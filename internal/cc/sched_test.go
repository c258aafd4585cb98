package cc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hoop/internal/mem"
)

// stuckPolicy commits empty transactions but blocks every read forever:
// it waits on a lock nobody ever releases, so the schedule runs out of
// runnable threads.
type stuckPolicy struct{}

func (stuckPolicy) begin(*thread)                          {}
func (stuckPolicy) read(*thread, mem.PAddr) (uint64, bool) { return 0, false }
func (stuckPolicy) write(*thread, mem.PAddr, uint64) bool  { return true }
func (stuckPolicy) commit(*thread) bool                    { return true }
func (stuckPolicy) abort(*thread)                          {}

// runRecover runs r and returns the value Run panicked with, if any.
func runRecover(r *Runner, srcs []TxSource, txs int) (p any) {
	defer func() { p = recover() }()
	r.Run(srcs, txs)
	return nil
}

// constSources returns one source per program, each returning its program
// for every transaction.
func constSources(progs ...[]Step) []TxSource {
	srcs := make([]TxSource, len(progs))
	for i, prog := range progs {
		srcs[i] = TxSourceFunc(func() []Step { return prog })
	}
	return srcs
}

// TestStuckScheduleReported checks that a schedule with no runnable thread
// panics with the stuck-schedule message and that the panic is
// recoverable on Run's caller's goroutine. The cases cover the stuck state
// being reached by a blocking thread (one and two blocked threads) and by
// a thread finishing its quota while the other is blocked.
func TestStuckScheduleReported(t *testing.T) {
	read := []Step{{Kind: OpRead}}
	var empty []Step
	for _, tc := range []struct {
		name  string
		progs [][]Step
	}{
		{"one-blocked", [][]Step{read}},
		{"all-blocked", [][]Step{read, read}},
		{"last-finisher", [][]Step{read, empty}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRunner(t, PolicyOCC, len(tc.progs))
			r.policy = stuckPolicy{}
			p := runRecover(r, constSources(tc.progs...), len(tc.progs))
			if msg, _ := p.(string); !strings.Contains(msg, "no runnable thread") {
				t.Fatalf("Run panicked with %v, want the no-runnable-thread message", p)
			}
		})
	}
}

// failCommitPolicy fails validation at every commit, so a transaction
// retries until Config.MaxRetries trips the livelock panic.
type failCommitPolicy struct{}

func (failCommitPolicy) begin(*thread)                          {}
func (failCommitPolicy) read(*thread, mem.PAddr) (uint64, bool) { return 0, true }
func (failCommitPolicy) write(*thread, mem.PAddr, uint64) bool  { return true }
func (failCommitPolicy) commit(*thread) bool                    { return false }
func (failCommitPolicy) abort(*thread)                          {}

// boomPolicy wraps a real policy and panics at its third write.
type boomPolicy struct {
	policy
	writes *int
}

func (p boomPolicy) write(t *thread, addr mem.PAddr, v uint64) bool {
	if *p.writes++; *p.writes == 3 {
		panic("boom")
	}
	return p.policy.write(t, addr, v)
}

// TestRunPanicsAreRecoverable checks that a panic raised inside a step
// surfaces from Run with its own value and can be recovered by Run's
// caller while other threads are mid-transaction. The cases are the
// MaxRetries livelock panic (under a policy whose commit always fails)
// and a panic from the policy itself.
func TestRunPanicsAreRecoverable(t *testing.T) {
	rmw := []Step{{Kind: OpRead}, {Kind: OpWrite, Add: 1}}
	for _, tc := range []struct {
		name string
		wrap func(policy) policy
		want string
	}{
		{"livelock", func(policy) policy { return failCommitPolicy{} }, "exceeded 5 retries (livelock?)"},
		{"policy", func(p policy) policy { return boomPolicy{p, new(int)} }, "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRunner(t, PolicyOCC, 2)
			r.cfg.MaxRetries = 5
			r.policy = tc.wrap(r.policy)
			p := runRecover(r, constSources(rmw, rmw), 8)
			if msg, _ := p.(string); !strings.Contains(msg, tc.want) {
				t.Fatalf("Run panicked with %v, want %q", p, tc.want)
			}
		})
	}
}

// callerPolicy wraps a real policy and checks at every begin that the step
// runs on Run's caller's goroutine: Run itself must be on the stack. A
// step run on a coroutine or on a goroutine Run started would have a
// stack of its own, without Run's frame.
type callerPolicy struct {
	policy
	t *testing.T
}

func (p callerPolicy) begin(t *thread) {
	buf := make([]byte, 1<<16)
	if stack := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(stack, "cc.(*Runner).Run(") {
		p.t.Fatalf("thread %d began a transaction off Run's goroutine:\n%s", t.id, stack)
	}
	p.policy.begin(t)
}

// TestRunGoroutineHygiene runs both policies at several thread counts over
// conflicting read-modify-writes, including runs where some or all threads
// have a zero quota. Every transaction must commit exactly once, every
// step must run on Run's caller's goroutine (Run starts no goroutine), and
// a second Run on the same Runner must complete too.
func TestRunGoroutineHygiene(t *testing.T) {
	for _, policy := range Policies {
		for _, n := range []int{1, 2, 4, 8} {
			txsCases := []int{0, 3*n + 1}
			if n > 1 {
				txsCases = append(txsCases, n-1) // some threads get no quota
			}
			for _, txs := range txsCases {
				t.Run(fmt.Sprintf("%s/threads=%d/txs=%d", policy, n, txs), func(t *testing.T) {
					r := newTestRunner(t, policy, n)
					r.cfg.Record = true
					r.policy = callerPolicy{r.policy, t}
					progs := make([][]Step, n)
					for i := range progs {
						// Every thread increments the same two words, in an
						// order that depends on the thread, so transactions
						// conflict and abort under both policies.
						a, b := mem.PAddr(0), mem.PAddr(mem.LineSize)
						if i%2 == 1 {
							a, b = b, a
						}
						progs[i] = []Step{
							{Kind: OpRead, Addr: a}, {Kind: OpWrite, Addr: a, Add: 1},
							{Kind: OpRead, Addr: b}, {Kind: OpWrite, Addr: b, Add: 1},
						}
					}
					srcs := constSources(progs...)
					for run := 1; run <= 2; run++ {
						r.Run(srcs, txs)
						if got := len(r.History().Commits); got != run*txs {
							t.Fatalf("run %d: %d commits recorded, want %d", run, got, run*txs)
						}
					}
				})
			}
		}
	}
}
