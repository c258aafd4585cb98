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
// granularity: each thread's transaction body runs in its own goroutine,
// and before every operation the running thread picks the next step's
// owner itself — the runnable thread with the smallest simulated clock
// (ties to the lowest thread id). If that is the thread itself it carries
// on without a goroutine switch; otherwise it hands the grant straight to
// the chosen thread and parks until a later grant comes back to it. There
// is no scheduler goroutine: exactly one thread goroutine holds the grant
// at any time, so the interleaving is deterministic, race-free, and
// reproducible bit-for-bit — yet transactions are genuinely concurrent in
// simulated time, so a lock request can find its line held by a parked
// transaction and wound-wait has someone to wound.
package cc

import (
	"fmt"

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

// Tx is the operation surface a transaction body runs against. Bodies must
// be deterministic functions of their inputs: an aborted body re-executes
// from scratch on retry.
type Tx interface {
	ReadWord(addr mem.PAddr) uint64
	WriteWord(addr mem.PAddr, v uint64)
}

// TxFunc is one transaction body.
type TxFunc func(tx Tx)

// TxSource produces the transaction bodies of one thread. Next is called
// once per *committed* transaction; the returned body may execute several
// times (abort → retry), so any randomness must be drawn inside Next and
// captured by the closure, never inside the body.
type TxSource interface {
	Next() TxFunc
}

// TxSourceFunc adapts a function to TxSource.
type TxSourceFunc func() TxFunc

// Next implements TxSource.
func (f TxSourceFunc) Next() TxFunc { return f() }

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

	// done tells Run that a thread found no runnable thread: every thread
	// has finished, or the schedule is stuck.
	done chan struct{}
	// lockEpoch increments whenever any lock is released (or a holder is
	// wounded); blocked threads only become runnable again when the epoch
	// has moved past the one they blocked under, so a failed re-check
	// cannot spin.
	lockEpoch uint64

	prioSeq uint64 // first-begin timestamps for wound-wait priorities

	history History
}

// thread run states (thread.status).
const (
	statusReady    = iota // parked at a yield point, runnable
	statusBlocked         // waiting on a lock
	statusFinished        // quota done, goroutine exited
)

type thread struct {
	r   *Runner
	id  int
	env *engine.Env

	// resume delivers grants (buffer 1, so the granting thread never
	// waits for the granted one to wake).
	resume chan struct{}
	status int
	// blockEpoch is the lockEpoch observed when the thread blocked.
	blockEpoch uint64
	blockLine  uint64

	// Wound-wait state: prio is the first-begin timestamp (kept across
	// retries so a repeatedly-wounded transaction ages into the oldest and
	// must eventually win); wounded is set by an older conflicting
	// requester and consumed at the next yield point.
	prio       uint64
	wounded    bool
	committing bool
	inTx       bool

	// Per-policy transaction state (epoch-cleared per attempt).
	occ  occState
	lock lockTxState

	// Recording buffer (reused across attempts; copied on commit).
	ops     []Op
	attempt int
}

// abortSignal unwinds a wounded or validation-failed transaction body.
type abortSignal struct{}

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
	r := &Runner{
		sys:  sys,
		cfg:  cfg,
		done: make(chan struct{}),
	}
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
		r.threads[i] = &thread{
			r:      r,
			id:     i,
			env:    sys.NewEnv(i),
			resume: make(chan struct{}, 1),
		}
	}
	return r, nil
}

// History returns the recorded history (Config.Record). The slice is owned
// by the Runner; read it only after Run returns.
func (r *Runner) History() *History { return &r.history }

// policy is the internal algorithm surface. All methods run on the
// granted thread's goroutine; none may yield except through t.acquire
// helpers that the policy itself owns.
type policy interface {
	// begin opens the engine transaction and resets per-attempt state.
	begin(t *thread)
	read(t *thread, addr mem.PAddr) uint64
	write(t *thread, addr mem.PAddr, v uint64)
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
// commit, so the committed-transaction count is exact. If the threads ever
// find no runnable thread before all have finished (a lock-scheduling bug),
// Run panics on the caller's goroutine; the stuck threads stay parked.
func (r *Runner) Run(sources []TxSource, totalTxs int) {
	n := len(r.threads)
	if len(sources) != n {
		panic(fmt.Sprintf("cc: %d sources for %d threads", len(sources), n))
	}
	quota := make([]int, n)
	for i := 0; i < totalTxs; i++ {
		quota[i%n]++
	}
	for i, t := range r.threads {
		t.status = statusReady
		t.wounded = false
		t.committing = false
		t.inTx = false
		if quota[i] == 0 {
			t.status = statusFinished
			continue
		}
		go t.loop(sources[i], quota[i])
	}
	// The goroutines start parked: hand out the first grant, after which
	// the threads pass it among themselves until none can run.
	first := r.pick()
	if first == nil {
		return
	}
	first.resume <- struct{}{}
	<-r.done
	for _, t := range r.threads {
		if t.status != statusFinished {
			panic("cc: no runnable thread (lock scheduler stuck — wound-wait must prevent deadlock)")
		}
	}
}

// pick selects the next thread to step: the smallest-clock thread that is
// ready, or blocked-but-wakeable (the lock epoch moved, or it was wounded).
func (r *Runner) pick() *thread {
	var best *thread
	var bestClock sim.Time
	for _, t := range r.threads {
		switch t.status {
		case statusReady:
		case statusBlocked:
			if !t.wounded && t.blockEpoch == r.lockEpoch {
				continue
			}
		default:
			continue
		}
		if c := r.sys.Clock(t.id); best == nil || c < bestClock {
			best, bestClock = t, c
		}
	}
	return best
}

// pass hands the grant from t (which has just set its status) to the next
// thread, or back to Run when no thread can run, and reports whether t gave
// it away and must park. Once the grant is gone, t must not touch Runner
// state again.
func (r *Runner) pass(t *thread) bool {
	switch next := r.pick(); next {
	case t:
		return false
	case nil:
		r.done <- struct{}{}
	default:
		next.resume <- struct{}{}
	}
	return true
}

// loop is one thread's goroutine: commit `quota` transactions, retrying
// aborted attempts with the same body.
func (t *thread) loop(src TxSource, quota int) {
	<-t.resume // wait for the first grant
	for done := 0; done < quota; done++ {
		body := src.Next()
		t.runToCommit(body)
	}
	t.status = statusFinished
	t.r.pass(t) // hand on the grant and exit
}

// runToCommit executes body until one attempt commits.
func (t *thread) runToCommit(body TxFunc) {
	for t.attempt = 0; ; t.attempt++ {
		if t.attempt > t.r.cfg.MaxRetries {
			panic(fmt.Sprintf("cc: thread %d exceeded %d retries (livelock?)", t.id, t.r.cfg.MaxRetries))
		}
		if t.tryOnce(body) {
			return
		}
	}
}

// tryOnce is one attempt: begin, body, commit. It reports whether the
// attempt committed; a wound or validation failure aborts the engine
// transaction and returns false.
func (t *thread) tryOnce(body TxFunc) (committed bool) {
	t.yield(statusReady) // the begin step
	if t.attempt == 0 {
		// A fresh transaction draws a new wound-wait priority; retries
		// keep the old one, so a repeatedly-wounded transaction ages into
		// the oldest in the system and must eventually win
		// (anti-starvation).
		t.r.prioSeq++
		t.prio = t.r.prioSeq
	}
	t.ops = t.ops[:0]
	t.committing = false
	t.r.policy.begin(t)
	t.inTx = true
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(abortSignal); !ok {
				panic(e)
			}
			t.r.policy.abort(t)
			t.inTx = false
			t.committing = false
			if t.r.cfg.Record {
				t.r.history.Aborts++
			}
			committed = false
		}
	}()
	body(t)
	t.committing = true
	t.yield(statusReady) // the commit step
	if !t.r.policy.commit(t) {
		panic(abortSignal{})
	}
	t.inTx = false
	t.committing = false
	if t.r.cfg.Record {
		t.r.history.Commits = append(t.r.history.Commits, CommittedTx{
			Thread:  t.id,
			Attempt: t.attempt,
			Ops:     append([]Op(nil), t.ops...),
		})
	}
	return true
}

// yield is a step boundary: the thread passes the grant on and continues
// once it is granted a step again (immediately, if it picks itself). A
// pending wound is consumed here: the grant lands as an abort.
func (t *thread) yield(status int) {
	t.status = status
	if t.r.pass(t) {
		<-t.resume
	}
	t.status = statusReady
	if t.wounded {
		t.wounded = false
		panic(abortSignal{})
	}
}

// yieldBlocked parks the thread as blocked on line until a lock releases.
func (t *thread) yieldBlocked(line uint64) {
	t.blockLine = line
	t.blockEpoch = t.r.lockEpoch
	t.yield(statusBlocked)
}

// Tx interface: ReadWord/WriteWord are the yield points.

// ReadWord implements Tx.
func (t *thread) ReadWord(addr mem.PAddr) uint64 {
	t.yield(statusReady)
	v := t.r.policy.read(t, addr)
	if t.r.cfg.Record {
		t.ops = append(t.ops, Op{Kind: OpRead, Addr: addr, Val: v})
	}
	return v
}

// WriteWord implements Tx.
func (t *thread) WriteWord(addr mem.PAddr, v uint64) {
	t.yield(statusReady)
	t.r.policy.write(t, addr, v)
	if t.r.cfg.Record {
		t.ops = append(t.ops, Op{Kind: OpWrite, Addr: addr, Val: v})
	}
}

// advance charges d of computation to the thread's clock.
func (t *thread) advance(d sim.Duration) {
	t.env.AdvanceTo(t.env.Now() + sim.Time(d))
}
