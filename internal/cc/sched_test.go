package cc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hoop/internal/mem"
)

// waitGoroutines polls until the process is back to want goroutines: a
// thread goroutine that has handed on its last grant may still be on its
// way out when Run returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Run, want %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

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

// TestRunGoroutineHygiene runs both policies at several thread counts over
// conflicting read-modify-writes, including runs where some or all threads
// have a zero quota. Every transaction must commit exactly once, every
// thread goroutine must be gone after Run returns, and a second Run on the
// same Runner must complete too.
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
					before := runtime.NumGoroutine()
					for run := 1; run <= 2; run++ {
						r.Run(srcs, txs)
						waitGoroutines(t, before)
						if got := len(r.History().Commits); got != run*txs {
							t.Fatalf("run %d: %d commits recorded, want %d", run, got, run*txs)
						}
					}
				})
			}
		}
	}
}
