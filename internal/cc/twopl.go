package cc

import (
	"math/bits"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/u64map"
)

// Lock timing constants. The lock table is a hardware structure beside the
// memory controller (HOOP already keeps per-line metadata there), so an
// uncontended acquire is a table probe plus a CAS, not a memory round trip.
const (
	lockAcquireCost = 5 * sim.Nanosecond
	lockReleaseCost = 2 * sim.Nanosecond
)

// Lock modes held by a transaction on a line.
const (
	lockS = uint8(1)
	lockX = uint8(2)
)

// lockState is one line's lock word. Entries are never deleted from the
// table: the freeAt times must survive release so a later requester whose
// clock lags the release still pays the causal wait.
type lockState struct {
	x       int32  // exclusive holder thread id + 1; 0 = unheld
	sharers uint64 // bitmask of shared-holder thread ids
	waiters uint64 // bitmask of threads queued on this line
	xFreeAt sim.Time
	sFreeAt sim.Time
}

// lockTxState is one thread's held-lock set for the current attempt.
type lockTxState struct {
	held  u64map.Map[uint8] // line -> lockS / lockX
	order []uint64          // acquisition order, for deterministic release
	// The thread's registered wait-queue slot (a thread has at most one
	// outstanding lock request).
	waiting  bool
	waitLine uint64
}

// lockPolicy implements per-line two-phase locking with wound-wait
// deadlock avoidance: a requester older than a conflicting holder wounds
// it (the holder aborts at its next step), a younger requester waits.
// Priorities are first-begin timestamps kept across retries, so a
// repeatedly-wounded transaction ages into the oldest in the system and
// must eventually win. Committing holders are never wounded — the commit
// step acquires nothing, so waiting for it is finite — which keeps the
// waits-for relation acyclic: younger-waits-for-older plus
// anyone-waits-for-committing can never close a cycle.
//
// With readLocks=false this degrades into the deliberately-unsound
// write-locks-only variant (PolicyBrokenNoReadLocks) that the cctest
// serializability oracle must catch.
type lockPolicy struct {
	r         *Runner
	readLocks bool
	table     u64map.Map[lockState]
}

func newLockPolicy(r *Runner, readLocks bool) *lockPolicy {
	return &lockPolicy{r: r, readLocks: readLocks}
}

func (p *lockPolicy) begin(t *thread) {
	t.env.TxBegin()
	t.lock.held.Clear()
	t.lock.order = t.lock.order[:0]
}

func (p *lockPolicy) read(t *thread, addr mem.PAddr) (uint64, bool) {
	if p.readLocks && !p.tryAcquire(t, mem.LineIndex(addr), false) {
		return 0, false
	}
	return t.env.ReadWord(addr), true
}

func (p *lockPolicy) write(t *thread, addr mem.PAddr, v uint64) bool {
	if !p.tryAcquire(t, mem.LineIndex(addr), true) {
		return false
	}
	t.env.WriteWord(addr, v)
	return true
}

func (p *lockPolicy) commit(t *thread) bool {
	t.env.TxEnd()
	p.releaseAll(t)
	return true
}

func (p *lockPolicy) abort(t *thread) {
	// Abort first, release after: the locks are held through the scheme's
	// rollback, so a scheme with an expensive abort path (undo logging
	// restores old images in the foreground) keeps its lines contended for
	// longer — the effect the contention figures measure. HOOP's abort is
	// free, so its locks release almost immediately.
	t.env.TxAbort()
	p.unregister(t)
	p.releaseAll(t)
}

// tryAcquire attempts one lock grab. On failure it wounds every younger
// non-committing conflicting holder, registers the thread in the line's
// wait queue, and reports false (the thread blocks on the same step and
// retries under the Runner's wake rule; wounded holders release through
// their abort path, which changes the line's word).
func (p *lockPolicy) tryAcquire(t *thread, line uint64, excl bool) bool {
	ls := p.table.Ref(line)
	mode, heldBefore := t.lock.held.Get(line)
	if excl && mode == lockX {
		return true
	}
	if !excl && mode != 0 {
		return true // S piggybacks on held S or X
	}
	// Queue discipline: an older transaction already waiting on this line
	// goes first even when the lock is momentarily grantable. Without it,
	// wound-wait livelocks under the min-clock scheduler: a wounded-and-
	// restarted young transaction (small clock, never waited) re-takes the
	// hot line before the old waiter — whose clock froze while blocked —
	// ever gets a grant, and the old transaction wounds it again, forever.
	if !p.olderWaiter(t, ls) {
		if excl {
			// X is grantable when no one else holds anything — including
			// the upgrade case, where the requester is the sole sharer.
			if ls.x == 0 && ls.sharers&^t.bit == 0 {
				ls.sharers &^= t.bit
				ls.x = int32(t.id) + 1
				t.lock.held.Put(line, lockX)
				if !heldBefore {
					t.lock.order = append(t.lock.order, line)
				}
				p.r.lineMoved |= ls.waiters
				p.unregister(t)
				t.env.AdvanceTo(sim.MaxTime(ls.xFreeAt, ls.sFreeAt))
				t.advance(lockAcquireCost)
				return true
			}
		} else if ls.x == 0 {
			ls.sharers |= t.bit
			t.lock.held.Put(line, lockS)
			t.lock.order = append(t.lock.order, line)
			p.r.lineMoved |= ls.waiters
			p.unregister(t)
			t.env.AdvanceTo(ls.xFreeAt) // S only waits for past X holders
			t.advance(lockAcquireCost)
			return true
		}
	}
	// Wound regardless of why the grant failed: even queued behind an
	// older waiter, t must not silently wait on a younger holder — that
	// edge could close a deadlock cycle the older waiter never breaks.
	p.wound(t, ls, excl)
	if !t.lock.waiting {
		ls.waiters |= t.bit
		t.lock.waiting = true
		t.lock.waitLine = line
	}
	return false
}

// olderWaiter reports whether a strictly older transaction is queued on
// the line (excluding t itself).
func (p *lockPolicy) olderWaiter(t *thread, ls *lockState) bool {
	for s := ls.waiters &^ t.bit; s != 0; {
		id := bits.TrailingZeros64(s)
		s &^= uint64(1) << uint(id)
		if p.r.threads[id].prio < t.prio {
			return true
		}
	}
	return false
}

// unregister clears t's wait-queue slot (after a successful acquire or an
// abort) and wakes the line's other waiters: a younger requester may have
// been queue-blocked solely behind t.
func (p *lockPolicy) unregister(t *thread) {
	if !t.lock.waiting {
		return
	}
	ls := p.table.Ref(t.lock.waitLine)
	ls.waiters &^= t.bit
	t.lock.waiting = false
	p.r.lineMoved |= ls.waiters
	p.r.epochMoved |= p.r.blocked
}

// wound delivers wound-wait: every conflicting holder younger than t is
// marked wounded (consumed at its next step as an abort). Holders waiting
// at their commit step are exempt — their locks release in finite time
// without t's help.
func (p *lockPolicy) wound(t *thread, ls *lockState, excl bool) {
	if ls.x != 0 {
		p.woundOne(t, int(ls.x)-1)
	}
	if excl {
		for s := ls.sharers &^ t.bit; s != 0; {
			id := bits.TrailingZeros64(s)
			s &^= uint64(1) << uint(id)
			p.woundOne(t, id)
		}
	}
}

func (p *lockPolicy) woundOne(t *thread, id int) {
	h := p.r.threads[id]
	if h == t || !h.inTx || h.committing || p.r.wounded&h.bit != 0 {
		return
	}
	if t.prio < h.prio {
		p.r.wounded |= h.bit
	}
}

// releaseAll frees every lock the attempt holds at the thread's current
// time (post-commit or post-abort) and wakes the released lines' waiters.
func (p *lockPolicy) releaseAll(t *thread) {
	if len(t.lock.order) == 0 {
		return
	}
	t.advance(sim.Duration(len(t.lock.order)) * lockReleaseCost)
	now := t.env.Now()
	for _, line := range t.lock.order {
		mode, ok := t.lock.held.Get(line)
		if !ok {
			continue
		}
		ls := p.table.Ref(line)
		p.r.lineMoved |= ls.waiters
		switch mode {
		case lockX:
			if ls.x == int32(t.id)+1 {
				ls.x = 0
				if now > ls.xFreeAt {
					ls.xFreeAt = now
				}
			}
		case lockS:
			ls.sharers &^= t.bit
			if now > ls.sFreeAt {
				ls.sFreeAt = now
			}
		}
	}
	t.lock.held.Clear()
	t.lock.order = t.lock.order[:0]
	p.r.epochMoved |= p.r.blocked
}
