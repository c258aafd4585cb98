package cc_test

import (
	"fmt"
	"reflect"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/cc/cctest"
	"hoop/internal/engine"
	"hoop/internal/sim"
)

// runWakeRule runs c's workload on a fresh system under the Runner's wake
// rule or, with epochOnly, the epoch-only reference rule, recording the
// history, and returns the effective steps, the count of skipped-over
// retries, the history and the final thread clocks.
func runWakeRule(t *testing.T, c cctest.Config, epochOnly bool) ([]cc.EffectiveStep, int, *cc.History, []sim.Time) {
	t.Helper()
	sys, err := cctest.NewSystem(c.Scheme, c.Threads)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cc.New(sys, cc.Config{Policy: c.Policy, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	steps, retries := cc.RunSteps(r, cctest.Sources(c), c.Txs, epochOnly)
	clocks := make([]sim.Time, c.Threads)
	for i := range clocks {
		clocks[i] = sys.Clock(i)
	}
	return steps, retries, r.History(), clocks
}

// TestWakeRuleMatchesEpochOnly is the wake rule's oracle. A blocked
// thread retries only once its own line's lock word has changed (and the
// lock epoch has moved); the reference lets it retry after any release
// anywhere. The rule is exact when every retry it skips would have
// blocked again without wounding anyone, so both runs must take the same
// effective steps in the same order and end with the same history and
// clocks, while the rule must skip some retries the reference takes. The
// grid is both policies × threads {2,4,8} × θ {0.5,0.9,1.2}, plus a
// seeded sweep of pool sizes, thread counts and skews.
func TestWakeRuleMatchesEpochOnly(t *testing.T) {
	var cfgs []cctest.Config
	for _, pol := range cc.Policies {
		for _, n := range []int{2, 4, 8} {
			for _, theta := range []float64{0.5, 0.9, 1.2} {
				cfgs = append(cfgs, cctest.Config{Scheme: engine.SchemeNative, Policy: pol, Seed: 1,
					Threads: n, Txs: 96, PoolWords: 32, OpsPerTx: 3, Theta: theta})
			}
		}
	}
	rng := sim.NewRand(7)
	for i := 0; i < 24; i++ {
		cfgs = append(cfgs, cctest.Config{Scheme: engine.SchemeNative, Policy: cc.Policies[i%2], Seed: rng.Uint64(),
			Threads: 2 + int(rng.Uint64()%7), Txs: 64, PoolWords: 2 + int(rng.Uint64()%63),
			OpsPerTx: 1 + int(rng.Uint64()%4), Theta: 0.3 + float64(rng.Uint64()%10)/10})
	}
	var skipped int
	for _, c := range cfgs {
		name := fmt.Sprintf("%s/t%d/z%.1f/pool%d/ops%d/seed%d", c.Policy, c.Threads, c.Theta, c.PoolWords, c.OpsPerTx, c.Seed)
		t.Run(name, func(t *testing.T) {
			steps, retries, hist, clocks := runWakeRule(t, c, false)
			refSteps, refRetries, refHist, refClocks := runWakeRule(t, c, true)
			if len(steps) != len(refSteps) {
				t.Errorf("%d effective steps, reference took %d", len(steps), len(refSteps))
			}
			for i := range min(len(steps), len(refSteps)) {
				if steps[i] != refSteps[i] {
					t.Fatalf("effective step %d is %+v, reference took %+v", i, steps[i], refSteps[i])
				}
			}
			if !reflect.DeepEqual(hist, refHist) {
				t.Errorf("history differs from the reference's")
			}
			if !reflect.DeepEqual(clocks, refClocks) {
				t.Errorf("final clocks %v, reference %v", clocks, refClocks)
			}
			if retries > refRetries {
				t.Errorf("%d re-blocked retries, more than the reference's %d", retries, refRetries)
			}
			skipped += refRetries - retries
		})
	}
	if skipped == 0 {
		t.Errorf("the wake rule skipped no retry the reference takes; the oracle has no teeth")
	}
}
