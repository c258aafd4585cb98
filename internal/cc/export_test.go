// Test-only access to the step loop for the external wake-rule oracle.

package cc

// EffectiveStep is one step that changed the run's state: the thread
// that stepped, its program counter and attempt before the step, and its
// state after it: "ready", "blocked" or "finished".
type EffectiveStep struct {
	Thread, PC, Attempt int
	Outcome             string
}

// RunSteps runs like Run and returns its effective steps. With epochOnly
// it picks under the reference wake rule instead: a blocked thread may
// retry as soon as any lock has been released (or a waiter has left a
// queue) since it blocked, whatever line it waits on. A retry that
// blocks again without wounding anyone changes nothing but the wake
// masks; such steps are left out of steps and counted in retries.
func RunSteps(r *Runner, sources []TxSource, totalTxs int, epochOnly bool) (steps []EffectiveStep, retries int) {
	r.start(sources, totalTxs)
	for {
		cand := r.runnable()
		if epochOnly {
			cand = r.ready | r.blocked&(r.wounded|r.epochMoved)
		}
		i := r.pickFrom(cand)
		if i < 0 {
			break
		}
		t := r.threads[i]
		wasBlocked, wounded := r.blocked&t.bit != 0, r.wounded
		pc, attempt := t.pc, t.attempt
		r.step(i)
		if wasBlocked && r.blocked&t.bit != 0 && r.wounded == wounded {
			retries++
			continue
		}
		out := "finished"
		switch {
		case r.ready&t.bit != 0:
			out = "ready"
		case r.blocked&t.bit != 0:
			out = "blocked"
		}
		steps = append(steps, EffectiveStep{Thread: i, PC: pc, Attempt: attempt, Outcome: out})
	}
	if r.ready|r.blocked != 0 {
		panic("cc: no runnable thread")
	}
	return steps, retries
}
