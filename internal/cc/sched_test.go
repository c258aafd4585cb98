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

func (stuckPolicy) begin(*thread) {}

func (stuckPolicy) read(t *thread, _ mem.PAddr) uint64 {
	for {
		t.yieldBlocked(0)
	}
}

func (stuckPolicy) write(*thread, mem.PAddr, uint64) {}
func (stuckPolicy) commit(*thread) bool              { return true }
func (stuckPolicy) abort(*thread)                    {}

// runRecover runs r and returns the value Run panicked with, if any.
func runRecover(r *Runner, srcs []TxSource, txs int) (p any) {
	defer func() { p = recover() }()
	r.Run(srcs, txs)
	return nil
}

// TestStuckScheduleReported checks that a schedule with no runnable thread
// panics on Run's caller's goroutine with the stuck-schedule message and
// that the panic is recoverable (a panic on a thread goroutine would crash
// the test binary instead). The cases cover the stuck state being found by
// a blocking thread (one and two blocked threads) and by a thread
// finishing its quota while the other is blocked.
func TestStuckScheduleReported(t *testing.T) {
	read := func(tx Tx) { tx.ReadWord(0) }
	empty := func(Tx) {}
	for _, tc := range []struct {
		name   string
		bodies []TxFunc
	}{
		{"one-blocked", []TxFunc{read}},
		{"all-blocked", []TxFunc{read, read}},
		{"last-finisher", []TxFunc{read, empty}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRunner(t, PolicyOCC, len(tc.bodies))
			r.policy = stuckPolicy{}
			srcs := make([]TxSource, len(tc.bodies))
			for i, body := range tc.bodies {
				srcs[i] = TxSourceFunc(func() TxFunc { return body })
			}
			p := runRecover(r, srcs, len(tc.bodies))
			if msg, _ := p.(string); !strings.Contains(msg, "no runnable thread") {
				t.Fatalf("Run panicked with %v, want the no-runnable-thread message", p)
			}
		})
	}
}

// failCommitPolicy fails validation at every commit, so a transaction
// retries until Config.MaxRetries trips the livelock panic.
type failCommitPolicy struct{}

func (failCommitPolicy) begin(*thread)                    {}
func (failCommitPolicy) read(*thread, mem.PAddr) uint64   { return 0 }
func (failCommitPolicy) write(*thread, mem.PAddr, uint64) {}
func (failCommitPolicy) commit(*thread) bool              { return false }
func (failCommitPolicy) abort(*thread)                    {}

// checkNoThreadCoroutines fails if any goroutine is still inside a thread
// coroutine: Run must have ended every one by the time it returns or
// panics. It inspects stacks rather than comparing runtime.NumGoroutine
// with a count taken before Run, which a previous (sub)test's goroutine
// still on its way out can lower in between.
func checkNoThreadCoroutines(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if got := strings.Count(string(buf), "cc.(*thread).loop("); got != 0 {
		t.Fatalf("%d thread coroutines outlive Run:\n%s", got, buf)
	}
}

// TestRunPanicsAreRecoverable checks that a panic other than an abort,
// raised on a thread's coroutine, surfaces on Run's caller's goroutine with
// its own value and can be recovered there, and that Run still ends the
// coroutine of every other thread, parked mid-transaction. The cases are
// the MaxRetries livelock panic (under a policy whose commit always fails)
// and a panic from the body itself.
func TestRunPanicsAreRecoverable(t *testing.T) {
	rmw := func(tx Tx) { tx.WriteWord(0, tx.ReadWord(0)+1) }
	calls := 0
	boom := func(tx Tx) {
		if calls++; calls == 3 {
			panic("boom")
		}
		rmw(tx)
	}
	for _, tc := range []struct {
		name string
		fail bool
		body TxFunc
		want string
	}{
		{"livelock", true, rmw, "exceeded 5 retries (livelock?)"},
		{"body", false, boom, "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRunner(t, PolicyOCC, 2)
			r.cfg.MaxRetries = 5
			if tc.fail {
				r.policy = failCommitPolicy{}
			}
			srcs := []TxSource{
				TxSourceFunc(func() TxFunc { return tc.body }),
				TxSourceFunc(func() TxFunc { return rmw }),
			}
			p := runRecover(r, srcs, 8)
			if msg, _ := p.(string); !strings.Contains(msg, tc.want) {
				t.Fatalf("Run panicked with %v, want %q", p, tc.want)
			}
			checkNoThreadCoroutines(t)
		})
	}
}

// TestRunGoroutineHygiene runs both policies at several thread counts over
// conflicting read-modify-writes, including runs where some or all threads
// have a zero quota. Every transaction must commit exactly once, no thread
// coroutine may outlive Run, and a second Run on the same Runner must
// complete too.
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
					srcs := make([]TxSource, n)
					for i := range srcs {
						// Every thread increments the same two words, in an
						// order that depends on the thread, so transactions
						// conflict and abort under both policies.
						a, b := mem.PAddr(0), mem.PAddr(mem.LineSize)
						if i%2 == 1 {
							a, b = b, a
						}
						body := func(tx Tx) {
							tx.WriteWord(a, tx.ReadWord(a)+1)
							tx.WriteWord(b, tx.ReadWord(b)+1)
						}
						srcs[i] = TxSourceFunc(func() TxFunc { return body })
					}
					for run := 1; run <= 2; run++ {
						r.Run(srcs, txs)
						checkNoThreadCoroutines(t)
						if got := len(r.History().Commits); got != run*txs {
							t.Fatalf("run %d: %d commits recorded, want %d", run, got, run*txs)
						}
					}
				})
			}
		}
	}
}
