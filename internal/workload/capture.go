package workload

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/trace"
)

// Captured is one (workload, seed) column's recorded op stream: setup ops
// followed by the measured window's ops plus padding transactions. The
// padding exists because the engine's min-clock scheduler draws a
// different number of transactions from each thread under each scheme's
// timing — a replayer needs headroom on every thread beyond what the
// capture scheme happened to consume.
type Captured struct {
	// Workload is the recorded workload's name.
	Workload string
	// Threads is the thread count the capture ran with.
	Threads int
	// SetupOps is the index in Ops where setup ends and the measured
	// stream begins. Replayers execute Ops[:SetupOps] in recorded global
	// order, then feed Ops[SetupOps:] per thread as transactions.
	SetupOps int
	// Ops is the full recorded stream.
	Ops []trace.Op
}

// padHeadroom sizes the per-thread padding: every thread's measured
// stream is extended to maxConsumed + maxConsumed/4 + padFloor committed
// transactions, where maxConsumed is the largest per-thread draw the
// capture scheme made. Min-clock scheduling keeps per-thread draws within
// a few percent of each other across schemes, so a 25%+16 margin is far
// beyond any observed skew; a replayer that still runs dry fails loudly.
const padFloor = 16

// Capture runs w once on sys while recording its operation stream. The
// run callback receives the freshly built runners and executes the
// measured phase however the caller wants (the harness passes its
// measurement window); everything the engine emits before run returns is
// recorded. After run returns, every thread's runner is driven further to
// build per-thread padding, so the capture replays against schemes whose
// scheduling draws more transactions from some thread than this run did.
func Capture(sys *engine.System, w Workload, seed uint64, run func(runners []engine.TxRunner)) (*Captured, error) {
	sink := &trace.OpSink{}
	sys.Subscribe(sink, trace.RecordMask)
	runners := w.Runners(sys, seed)
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: capturing %s setup: %w", w.Name, err)
	}
	setupOps := len(sink.Ops)
	run(runners)
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: capturing %s: %w", w.Name, err)
	}
	threads := sys.Config().Threads
	consumed := make([]int, threads)
	maxConsumed := 0
	for _, op := range sink.Ops[setupOps:] {
		if op.Kind == trace.OpTxEnd || op.Kind == trace.OpTxAbort {
			consumed[op.Thread]++
			if c := consumed[op.Thread]; c > maxConsumed {
				maxConsumed = c
			}
		}
	}
	target := maxConsumed + maxConsumed/4 + padFloor
	for t := 0; t < threads; t++ {
		env := sys.NewEnv(t)
		for i := consumed[t]; i < target; i++ {
			runners[t].RunTx(env)
		}
	}
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: padding %s capture: %w", w.Name, err)
	}
	return &Captured{
		Workload: w.Name,
		Threads:  threads,
		SetupOps: setupOps,
		Ops:      sink.Ops,
	}, nil
}
