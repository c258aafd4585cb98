// Package cc is the optional concurrency-control layer above the persist
// schemes: it lets the engine's per-core threads issue *conflicting*
// transactions and resolves the conflicts with one of two interchangeable
// policies — optimistic concurrency control (validation at commit) or
// per-line two-phase locking with wound-wait deadlock avoidance. Aborted
// attempts flow through Env.TxAbort and each scheme's abort path, which is
// exactly what the contention figures measure: HOOP's out-of-place
// buffering makes an abort free (the un-committed OOP slices simply become
// garbage), while undo logging must restore old images in the foreground
// before its locks can release.
//
// Execution model: engine.System.Run interleaves whole transactions, which
// can never conflict. The cc.Runner instead interleaves at *operation*
// granularity. A transaction is data — a program of Steps over one
// register — and each thread is a program counter into its current
// program. Run is one loop on the caller's goroutine: it picks the
// runnable thread with the smallest simulated clock (ties to the lowest
// thread id) and executes one step of it — the begin, one operation, or
// the commit — then picks again. A lock that cannot be granted leaves the
// thread blocked on the same step until it is wounded or its line's lock
// word changes; a wound or a failed validation runs the abort path within
// the step. Nothing parks and nothing unwinds, so the interleaving is
// deterministic, race-free, and reproducible bit-for-bit —
// yet transactions are genuinely concurrent in simulated time, so a lock
// request can find its line held by another thread's open transaction and
// wound-wait has someone to wound.
package cc

import (
	"fmt"
	"math/bits"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// Policy names a concurrency-control algorithm.
type Policy string

const (
	// PolicyOCC is optimistic concurrency control: reads record per-line
	// versions, writes buffer privately, and commit validates the read set
	// and installs the write buffer as one atomic step. Aborts never
	// install anything, so they are cheap under every scheme.
	PolicyOCC Policy = "occ"
	// Policy2PL is per-line two-phase locking with wound-wait: writes are
	// eager (they reach the scheme before commit), so an abort must undo
	// durable work — the policy under which the schemes' abort paths
	// differentiate.
	Policy2PL Policy = "2pl"
	// PolicyBrokenNoReadLocks is the deliberately-unsound negative
	// control: two-phase locking that takes no read locks, admitting
	// non-serializable interleavings the cctest oracle must reject. Never
	// use it for measurements; it exists so the serializability harness
	// can prove it has teeth.
	PolicyBrokenNoReadLocks Policy = "broken-no-read-locks"
)

// Policies lists the sound policies in figure order.
var Policies = []Policy{PolicyOCC, Policy2PL}

// Step is one operation of a transaction program. A transaction has one
// register, zero at begin: a read step (Kind OpRead) loads the word at
// Addr into it, and a write step (Kind OpWrite) stores register + Add at
// Addr. A read-modify-write of one word is the pair {OpRead, a} then
// {OpWrite, a, delta}.
type Step struct {
	Kind OpKind
	Addr mem.PAddr
	Add  uint64
}

// TxSource produces the transaction programs of one thread. Next is called
// once per *committed* transaction; the returned program may execute
// several times (abort → retry), so any randomness must be drawn inside
// Next and baked into the steps. The Runner reads a program only until it
// calls Next again, so a source may refill and return one slice for every
// transaction.
type TxSource interface {
	Next() []Step
}

// TxSourceFunc adapts a function to TxSource.
type TxSourceFunc func() []Step

// Next implements TxSource.
func (f TxSourceFunc) Next() []Step { return f() }

// Config configures a Runner.
type Config struct {
	Policy Policy
	// Record retains every committed transaction's reads and writes (and
	// the abort count) in a History for the serializability oracle. Off
	// for measurement runs — recording allocates.
	Record bool
	// MaxRetries bounds the abort→retry loop of a single transaction
	// (safety net against livelock bugs; wound-wait should never need it).
	// Zero means the default of 10000.
	MaxRetries int
}

// Runner drives conflicting transactions over one engine.System.
type Runner struct {
	sys     *engine.System
	cfg     Config
	policy  policy
	threads []*thread

	// Scheduler state, one bit per thread id. A thread is ready (at a step
	// boundary), blocked (waiting on a lock) or, in neither mask, finished.
	ready   uint64
	blocked uint64
	// wounded marks threads an older conflicting requester has wounded;
	// the wound is consumed at the thread's next step as an abort, so a
	// wounded blocked thread is runnable at once.
	wounded uint64
	// A blocked thread's retry re-reads only its own line's lock word, so
	// it is runnable again only when both masks have its bit: epochMoved
	// (some lock was released, or a waiter left a queue, since it blocked)
	// and lineMoved (its own line's word changed since it blocked: a
	// grant, a release, or a waiter leaving the queue). A retry skipped by
	// this rule would have failed again without wounding anyone.
	epochMoved uint64
	lineMoved  uint64

	// clocks mirrors the thread clocks for pick. A step moves only its
	// own thread's clock, so step refreshes that one entry.
	clocks []sim.Time

	prioSeq uint64 // first-begin timestamps for wound-wait priorities

	history History
}

type thread struct {
	r   *Runner
	id  int
	bit uint64 // 1 << id, the thread's bit in the scheduler masks
	env *engine.Env

	// The thread's work in the current Run: src supplies programs, left
	// counts the transactions still to commit, prog is the current one,
	// pc indexes its next step and reg is its register.
	src  TxSource
	left int
	prog []Step
	pc   int
	reg  uint64

	// Wound-wait state: prio is the first-begin timestamp (kept across
	// retries so a repeatedly-wounded transaction ages into the oldest and
	// must eventually win). Runner.wounded holds the wound itself.
	prio       uint64
	committing bool
	inTx       bool

	// Per-policy transaction state (epoch-cleared per attempt).
	occ  occState
	lock lockTxState

	// Recording buffer (reused across attempts; copied on commit).
	ops     []Op
	attempt int
}

// New builds a Runner over sys. The system must have been built with
// engine.Config.Abortable (the rollback arena TxAbort needs).
func New(sys *engine.System, cfg Config) (*Runner, error) {
	n := sys.Config().Threads
	if n > 64 {
		return nil, fmt.Errorf("cc: at most 64 threads (lock table uses a holder bitmask), got %d", n)
	}
	if !sys.Config().Abortable {
		return nil, fmt.Errorf("cc: engine.Config.Abortable must be set (TxAbort needs the rollback arena)")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10000
	}
	r := &Runner{sys: sys, cfg: cfg}
	switch cfg.Policy {
	case PolicyOCC:
		r.policy = newOCCPolicy(r)
	case Policy2PL:
		r.policy = newLockPolicy(r, true)
	case PolicyBrokenNoReadLocks:
		r.policy = newLockPolicy(r, false)
	default:
		return nil, fmt.Errorf("cc: unknown policy %q", cfg.Policy)
	}
	r.threads = make([]*thread, n)
	for i := range r.threads {
		r.threads[i] = &thread{r: r, id: i, bit: uint64(1) << uint(i), env: sys.NewEnv(i)}
	}
	r.clocks = make([]sim.Time, n)
	return r, nil
}

// History returns the recorded history (Config.Record). The slice is owned
// by the Runner; read it only after Run returns.
func (r *Runner) History() *History { return &r.history }

// policy is the internal algorithm surface. Every method runs inside one
// step of the thread; read and write report false when a lock cannot be
// granted, and the thread then blocks on the same step.
type policy interface {
	// begin opens the engine transaction and resets per-attempt state.
	begin(t *thread)
	read(t *thread, addr mem.PAddr) (uint64, bool)
	write(t *thread, addr mem.PAddr, v uint64) bool
	// commit attempts to commit; false means validation failed and the
	// caller must abort the attempt. On true the engine transaction is
	// durable and all policy state is released.
	commit(t *thread) bool
	// abort tears down policy state after an abort decision. The engine
	// transaction is still open; abort must close it via env.TxAbort and
	// only then release conflict state (locks release at post-abort time,
	// so expensive scheme rollbacks hold their lines longer — the effect
	// the contention figures measure).
	abort(t *thread)
}

// Run executes totalTxs committed transactions spread round-robin over the
// sources (one per thread, like engine.System.Run). It returns when every
// thread has committed its share; aborted attempts retry until they
// commit, so the committed-transaction count is exact. Every step runs on
// the caller's goroutine. If no thread is runnable before all have
// finished (a lock-scheduling bug), Run panics, and so does the MaxRetries
// livelock guard; after a panic the Runner must not be used again.
func (r *Runner) Run(sources []TxSource, totalTxs int) {
	r.start(sources, totalTxs)
	for i := r.pick(); i >= 0; i = r.pick() {
		r.step(i)
	}
	if r.ready|r.blocked != 0 {
		panic("cc: no runnable thread (lock scheduler stuck — wound-wait must prevent deadlock)")
	}
}

// start hands each thread its source and its share of totalTxs and makes
// every thread with a nonzero share ready.
func (r *Runner) start(sources []TxSource, totalTxs int) {
	n := len(r.threads)
	if len(sources) != n {
		panic(fmt.Sprintf("cc: %d sources for %d threads", len(sources), n))
	}
	r.ready, r.blocked, r.wounded, r.epochMoved, r.lineMoved = 0, 0, 0, 0, 0
	for i, t := range r.threads {
		t.committing = false
		t.inTx = false
		t.src = sources[i]
		t.left = totalTxs / n
		if i < totalTxs%n {
			t.left++
		}
		r.clocks[i] = r.sys.Clock(i)
		if t.left == 0 {
			continue
		}
		r.ready |= t.bit
		t.prog, t.attempt = t.src.Next(), 0
	}
}

// pick returns the id of the next thread to step, or -1 if none can.
func (r *Runner) pick() int { return r.pickFrom(r.runnable()) }

// runnable returns the threads that may step: the ready ones, the wounded
// blocked ones, and the blocked ones the wake rule lets retry.
func (r *Runner) runnable() uint64 {
	return r.ready | r.blocked&(r.wounded|r.epochMoved&r.lineMoved)
}

// pickFrom returns the smallest-clock thread in cand, ties to the lowest
// id, or -1 if cand is empty.
func (r *Runner) pickFrom(cand uint64) int {
	if cand == 0 {
		return -1
	}
	best := bits.TrailingZeros64(cand)
	bestClock := r.clocks[best]
	for cand &= cand - 1; cand != 0; cand &= cand - 1 {
		if i := bits.TrailingZeros64(cand); r.clocks[i] < bestClock {
			best, bestClock = i, r.clocks[i]
		}
	}
	return best
}

// step executes thread i's next step: the begin of an attempt, one
// operation of its program, or the commit. A pending wound is consumed
// first: the step lands as an abort.
func (r *Runner) step(i int) {
	t := r.threads[i]
	r.blocked &^= t.bit
	r.ready |= t.bit
	switch {
	case r.wounded&t.bit != 0:
		r.wounded &^= t.bit
		t.abort()
	case !t.inTx:
		t.begin()
	case t.pc < len(t.prog):
		t.op()
	case r.policy.commit(t):
		t.commit()
	default:
		t.abort()
	}
	r.clocks[i] = t.env.Now()
}

// begin opens an attempt of the current program.
func (t *thread) begin() {
	if t.attempt == 0 {
		// A fresh transaction draws a new wound-wait priority; retries
		// keep the old one, so a repeatedly-wounded transaction ages into
		// the oldest in the system and must eventually win
		// (anti-starvation).
		t.r.prioSeq++
		t.prio = t.r.prioSeq
	}
	t.ops = t.ops[:0]
	t.pc, t.reg = 0, 0
	t.r.policy.begin(t)
	t.inTx = true
	t.committing = len(t.prog) == 0
}

// op executes the program's next step, or blocks the thread on it if the
// policy cannot grant its lock. Once the last step has run the attempt
// waits at its commit step, where it can no longer be wounded.
func (t *thread) op() {
	s := &t.prog[t.pc]
	var v uint64
	var ok bool
	if s.Kind == OpRead {
		v, ok = t.r.policy.read(t, s.Addr)
	} else {
		v = t.reg + s.Add
		ok = t.r.policy.write(t, s.Addr, v)
	}
	if !ok {
		r := t.r
		r.ready &^= t.bit
		r.blocked |= t.bit
		r.epochMoved &^= t.bit
		r.lineMoved &^= t.bit
		return
	}
	if s.Kind == OpRead {
		t.reg = v
	}
	if t.r.cfg.Record {
		t.ops = append(t.ops, Op{Kind: s.Kind, Addr: s.Addr, Val: v})
	}
	t.pc++
	t.committing = t.pc == len(t.prog)
}

// commit closes a committed attempt and takes the thread's next program,
// or finishes the thread when its quota is done.
func (t *thread) commit() {
	t.inTx = false
	t.committing = false
	if t.r.cfg.Record {
		t.r.history.Commits = append(t.r.history.Commits, CommittedTx{
			Thread:  t.id,
			Attempt: t.attempt,
			Ops:     append([]Op(nil), t.ops...),
		})
	}
	if t.left--; t.left == 0 {
		t.r.ready &^= t.bit
		return
	}
	t.prog, t.attempt = t.src.Next(), 0
}

// abort rolls back the open attempt; the thread's next step begins the
// retry.
func (t *thread) abort() {
	t.r.policy.abort(t)
	t.inTx = false
	t.committing = false
	if t.r.cfg.Record {
		t.r.history.Aborts++
	}
	if t.attempt++; t.attempt > t.r.cfg.MaxRetries {
		panic(fmt.Sprintf("cc: thread %d exceeded %d retries (livelock?)", t.id, t.r.cfg.MaxRetries))
	}
}

// advance charges d of computation to the thread's clock.
func (t *thread) advance(d sim.Duration) {
	t.env.AdvanceTo(t.env.Now() + sim.Time(d))
}
