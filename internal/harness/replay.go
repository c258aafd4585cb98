package harness

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/telemetry"
	"hoop/internal/trace"
	"hoop/internal/workload"
)

// The record-once/replay-many matrix pipeline. Each (workload, seed)
// column of the Figure 7–9 matrix executes its workload logic exactly
// once — on one scheme, with a trace.OpSink subscribed — and every
// other scheme's cell replays the captured op stream instead of re-running
// B-tree rebalances, Zipfian draws, or TPC-C logic. Replay is faithful
// because the engine's functional view is scheme-independent and the
// paper-suite workloads are per-thread partitioned: each thread's op
// stream is a function of its seed alone, so reissuing each thread's
// recorded transactions under the unchanged min-clock scheduler
// reconstructs exactly the run that scheme would have produced directly.
// The golden grid and trace tests lock this bit for bit.

// A column is one (workload, seed) capture (workload.Captured) shared by
// that workload's replay cells. The replay cells only read it, so no
// locking is needed even with replay cells running on parallel workers.

// columnWeight orders ready replays, heaviest column first: replaying the
// setup stream and storing the payload dominate a replay cell's host time.
func columnWeight(c *workload.Captured) int { return len(c.Setup) + len(c.Payload)/8 }

// gatedSink forwards events only while open. The capture cell needs it
// because telemetry subscriptions are forever: the cell's JSONL sink must
// cover exactly the measurement window, but the capture keeps running
// padding transactions after the window closes.
type gatedSink struct {
	inner telemetry.Sink
	open  bool
}

func (g *gatedSink) Emit(e telemetry.Event) {
	if g.open {
		g.inner.Emit(e)
	}
}

// captureCellRun executes one capture cell: a direct run of the cell's
// scheme with a recorder subscribed from before setup, whose measurement
// window doubles as the cell's own matrix result. Returns the system,
// detached by the capture (see workload.Capture).
func captureCellRun(c Cell) (Metrics, *workload.Captured, *engine.System, error) {
	sys, err := buildSystem(c.Scheme, c.mut())
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	var met Metrics
	var gate *gatedSink
	sink := c.Sink
	if sink != nil {
		gate = &gatedSink{inner: sink}
		sink = gate
	}
	cap, err := workload.Capture(sys, c.Workload, c.Seed, func(runners []engine.TxRunner) {
		if gate != nil {
			gate.open = true
		}
		met = measureWindow(sys, c.Txs, sink, func(txs int) { sys.Run(runners, txs) })
		if gate != nil {
			gate.open = false
		}
	})
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	return met, cap, sys, nil
}

// replayCellRun executes one replay cell: the column's setup stream in
// recorded order, then the standard measurement window driven by replay
// runners. Returns the system so tests can compare durable images.
func replayCellRun(c Cell, col *workload.Captured) (Metrics, *engine.System, error) {
	sys, err := buildSystem(c.Scheme, c.mut())
	if err != nil {
		return Metrics{}, nil, err
	}
	if got := sys.Config().Threads; got != col.Threads {
		return Metrics{}, nil, fmt.Errorf("harness: %s capture has %d threads but %s system has %d", col.Workload, col.Threads, c.Scheme, got)
	}
	if _, err := trace.ReplayOps(sys, col.Setup, col.Payload); err != nil {
		return Metrics{}, nil, err
	}
	sys.SyncClocks()
	runners := make([]engine.TxRunner, col.Threads)
	cursors := make([]trace.Cursor, col.Threads)
	for t := range runners {
		cursors[t].Reset(col.Workload, t, col.Measured[t], col.Payload)
		runners[t] = &cursors[t]
	}
	return measureWindow(sys, c.Txs, c.Sink, func(txs int) { sys.Run(runners, txs) }), sys, nil
}
