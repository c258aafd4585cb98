package workload

import (
	"fmt"
	"slices"

	"hoop/internal/engine"
	"hoop/internal/trace"
)

// Captured is one (workload, seed) column's recorded op stream, split the
// way replays read it: the setup ops in recorded global order, then each
// thread's measured-window transactions plus padding transactions. The
// padding exists because the engine's min-clock scheduler draws a
// different number of transactions from each thread under each scheme's
// timing — a replayer needs headroom on every thread beyond what the
// capture scheme happened to consume. Every slice is exactly sized, and
// nothing of the raw recording is kept.
type Captured struct {
	// Workload is the recorded workload's name.
	Workload string
	// Threads is the thread count the capture ran with.
	Threads int
	// Setup is the pre-window op stream; replayers execute it in recorded
	// global order.
	Setup []trace.Op
	// Measured[t][i] is thread t's i-th transaction of the measured window
	// and its padding (trace.OpSink.SplitTxs), fed to a replayer per thread.
	Measured [][][]trace.Op
	// Payload holds the stores' data; each store Op names its bytes by
	// offset and size.
	Payload []byte
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
// recorded. After run returns, Capture detaches sys (engine.System.Detach)
// and drives every thread's runner further to build per-thread padding,
// so the capture replays against schemes whose scheduling draws more
// transactions from some thread than this run did. The padding is
// recorded but not simulated: sys's simulated numbers stay as run left
// them, and sys can no longer Run.
func Capture(sys *engine.System, w Workload, seed uint64, run func(runners []engine.TxRunner)) (*Captured, error) {
	sink := &trace.OpSink{}
	sys.Subscribe(sink, trace.RecordMask)
	runners := w.Runners(sys, seed)
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: capturing %s setup: %w", w.Name, err)
	}
	setupOps := sink.Len()
	run(runners)
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: capturing %s: %w", w.Name, err)
	}
	sys.Detach()
	return padAndSplit(sys, w.Name, runners, sink, setupOps)
}

// padAndSplit runs the padding transactions on sys, recording them into
// sink, then copies the recording out of sink into a Captured.
func padAndSplit(sys *engine.System, name string, runners []engine.TxRunner, sink *trace.OpSink, setupOps int) (*Captured, error) {
	threads := sys.Config().Threads
	consumed, err := sink.Closes(setupOps, threads)
	if err != nil {
		return nil, fmt.Errorf("workload: capturing %s: %w", name, err)
	}
	maxConsumed := slices.Max(consumed)
	target := maxConsumed + maxConsumed/4 + padFloor
	for t := 0; t < threads; t++ {
		env := sys.NewEnv(t)
		for i := consumed[t]; i < target; i++ {
			runners[t].RunTx(env)
		}
	}
	if err := sink.Err(); err != nil {
		return nil, fmt.Errorf("workload: padding %s capture: %w", name, err)
	}
	measured, err := sink.SplitTxs(setupOps, threads)
	if err != nil {
		return nil, fmt.Errorf("workload: splitting %s capture: %w", name, err)
	}
	return &Captured{
		Workload: name,
		Threads:  threads,
		Setup:    sink.Ops(0, setupOps),
		Measured: measured,
		Payload:  sink.Payload(),
	}, nil
}
