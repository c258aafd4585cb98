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

// TestPickLowestClockThenLowestID checks pick's order: the smallest clock
// wins, and equal clocks go to the lowest thread id.
func TestPickLowestClockThenLowestID(t *testing.T) {
	r := newTestRunner(t, PolicyOCC, 4)
	r.ready = 0b1110
	for i := range r.clocks {
		r.clocks[i] = 100
	}
	if got := r.pick(); got != 1 {
		t.Fatalf("equal clocks: picked thread %d, want the lowest ready id 1", got)
	}
	r.clocks[3] = 99
	if got := r.pick(); got != 3 {
		t.Fatalf("picked thread %d, want 3, the smallest clock", got)
	}
	r.ready = 0
	if got := r.pick(); got != -1 {
		t.Fatalf("nothing runnable: picked thread %d, want -1", got)
	}
}

// wakeRunner starts a 2PL Runner whose threads each run one transaction
// of the given program, and begins every attempt in id order, so thread 0
// is the oldest.
func wakeRunner(t *testing.T, progs ...[]Step) *Runner {
	t.Helper()
	r := newTestRunner(t, Policy2PL, len(progs))
	r.start(constSources(progs...), len(progs))
	for i := range progs {
		r.step(i)
	}
	return r
}

// stepTo steps thread i and checks that it ends ready or blocked.
func stepTo(t *testing.T, r *Runner, i int, blocked bool) {
	t.Helper()
	r.step(i)
	if got := r.blocked&r.threads[i].bit != 0; got != blocked {
		t.Fatalf("thread %d: blocked=%v after its step, want %v", i, got, blocked)
	}
}

// TestBlockedThreadWakesOnItsOwnLine checks the wake rule: a thread
// blocked on a line sleeps through a release of an unrelated line (which
// the epoch-only rule would wake it for) and wakes when its own line is
// released.
func TestBlockedThreadWakesOnItsOwnLine(t *testing.T) {
	a, b := mem.PAddr(0), mem.PAddr(mem.LineSize)
	r := wakeRunner(t,
		[]Step{{Kind: OpWrite, Addr: a}},
		[]Step{{Kind: OpWrite, Addr: a}},
		[]Step{{Kind: OpWrite, Addr: b}},
	)
	stepTo(t, r, 0, false) // thread 0 (oldest) takes line a
	stepTo(t, r, 2, false) // thread 2 takes line b
	stepTo(t, r, 1, true)  // thread 1 waits on a behind the older thread 0
	bit := r.threads[1].bit
	if r.runnable()&bit != 0 {
		t.Fatal("thread 1 is runnable right after blocking")
	}
	stepTo(t, r, 2, false) // thread 2 commits, releasing line b
	if r.epochMoved&bit == 0 {
		t.Fatal("releasing line b did not move thread 1's lock epoch")
	}
	if r.runnable()&bit != 0 {
		t.Fatal("a release of an unrelated line woke thread 1")
	}
	stepTo(t, r, 0, false) // thread 0 commits, releasing line a
	if r.runnable()&bit == 0 {
		t.Fatal("the release of thread 1's own line left it asleep")
	}
	if got := r.pick(); got != 1 {
		t.Fatalf("picked thread %d, want the woken thread 1", got)
	}
}

// TestWoundWakesBlockedThread checks that a wound makes a blocked thread
// runnable at once, though no lock was released since it blocked, and
// that its next step is the abort.
func TestWoundWakesBlockedThread(t *testing.T) {
	a, b, c := mem.PAddr(0), mem.PAddr(mem.LineSize), mem.PAddr(2*mem.LineSize)
	r := wakeRunner(t,
		[]Step{{Kind: OpWrite, Addr: a}},
		[]Step{{Kind: OpWrite, Addr: b}, {Kind: OpWrite, Addr: c}},
		[]Step{{Kind: OpWrite, Addr: a}, {Kind: OpWrite, Addr: b}},
	)
	stepTo(t, r, 2, false) // thread 2 (youngest) takes line a
	stepTo(t, r, 1, false) // thread 1 takes line b
	stepTo(t, r, 2, true)  // thread 2 waits on b behind the older thread 1
	stepTo(t, r, 0, true)  // thread 0 (oldest) wants a: wounds thread 2 and waits
	bit := r.threads[2].bit
	if r.epochMoved&bit != 0 || r.wounded&bit == 0 {
		t.Fatalf("thread 2: epochMoved=%v wounded=%v, want a wound with no release", r.epochMoved&bit != 0, r.wounded&bit != 0)
	}
	if r.runnable()&bit == 0 {
		t.Fatal("the wound left thread 2 asleep")
	}
	stepTo(t, r, 2, false) // the abort releases line a
	if r.threads[2].attempt != 1 || r.threads[2].inTx {
		t.Fatalf("thread 2's step after the wound: attempt %d, inTx %v; want the aborted first attempt", r.threads[2].attempt, r.threads[2].inTx)
	}
	if r.runnable()&r.threads[0].bit == 0 {
		t.Fatal("thread 2's abort released line a but left thread 0 asleep")
	}
}

// TestWaiterLeavingWakesQueueBehindIt checks the third kind of change to
// a line's lock word: an older waiter that leaves the queue without a
// grant (it is wounded and aborts) wakes the younger waiter queued behind
// it, which can now take the free line.
func TestWaiterLeavingWakesQueueBehindIt(t *testing.T) {
	l, b, x := mem.PAddr(0), mem.PAddr(mem.LineSize), mem.PAddr(2*mem.LineSize)
	r := wakeRunner(t,
		[]Step{{Kind: OpWrite, Addr: b}},
		[]Step{{Kind: OpWrite, Addr: l}, {Kind: OpWrite, Addr: x}},
		[]Step{{Kind: OpWrite, Addr: b}, {Kind: OpWrite, Addr: l}},
		[]Step{{Kind: OpWrite, Addr: l}},
	)
	stepTo(t, r, 1, false) // thread 1 takes l
	stepTo(t, r, 2, false) // thread 2 takes b
	stepTo(t, r, 2, true)  // thread 2 waits on l behind the older thread 1
	stepTo(t, r, 3, true)  // thread 3 waits on l behind threads 1 and 2
	stepTo(t, r, 1, false) // thread 1 takes x
	stepTo(t, r, 1, false) // thread 1 commits, releasing l
	stepTo(t, r, 3, true)  // thread 3 retries: l is free, but the older thread 2 waits
	stepTo(t, r, 0, true)  // thread 0 (oldest) wants b: wounds thread 2 and waits
	bit := r.threads[3].bit
	if r.runnable()&bit != 0 {
		t.Fatal("thread 3 is runnable before thread 2 leaves the queue")
	}
	stepTo(t, r, 2, false) // thread 2 aborts and leaves l's queue
	if r.runnable()&bit == 0 {
		t.Fatal("thread 2 left l's queue, but thread 3 behind it stays asleep")
	}
	stepTo(t, r, 3, false) // thread 3 takes l
}
