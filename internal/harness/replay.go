package harness

import (
	"fmt"
	"sync"

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

// matrixColumn is one (workload, seed) capture shared by that workload's
// replay cells. It is built once from the in-memory capture; the replay
// stage only reads it, so no locking is needed even with replay cells
// running on parallel workers.
type matrixColumn struct {
	workload string
	threads  int
	// setup is the pre-window op stream, replayed in recorded global
	// order; measured[t][i] is thread t's i-th measured-window transaction
	// (including padding), fed through the scheme's own scheduling.
	setup    []trace.Op
	measured [][][]trace.Op
	// payload is the capture's store-data buffer both streams index.
	payload []byte
}

// weight orders ready replays, heaviest column first: replaying the setup
// stream and storing the payload dominate a replay cell's host time.
func (c *matrixColumn) weight() int { return len(c.setup) + len(c.payload)/8 }

// columnFromCapture derives the replay inputs from a capture.
func columnFromCapture(cap *workload.Captured) (*matrixColumn, error) {
	measured, err := trace.SplitTxs(cap.Ops[cap.SetupOps:], cap.Threads)
	if err != nil {
		return nil, fmt.Errorf("harness: splitting %s capture: %w", cap.Workload, err)
	}
	return &matrixColumn{workload: cap.Workload, threads: cap.Threads, setup: cap.Ops[:cap.SetupOps], measured: measured, payload: cap.Payload}, nil
}

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
// window doubles as the cell's own matrix result. Returns the system so
// tests can compare durable images.
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

// cursorPool recycles replay cursors (and their load scratch buffers)
// across replay cells, so a 49-cell matrix allocates its cursors once.
var cursorPool = sync.Pool{New: func() any { return new(trace.Cursor) }}

// replayCellRun executes one replay cell: the column's setup stream in
// recorded order, then the standard measurement window driven by replay
// runners. Returns the system so tests can compare durable images.
func replayCellRun(c Cell, col *matrixColumn) (Metrics, *engine.System, error) {
	sys, err := buildSystem(c.Scheme, c.mut())
	if err != nil {
		return Metrics{}, nil, err
	}
	if got := sys.Config().Threads; got != col.threads {
		return Metrics{}, nil, fmt.Errorf("harness: %s capture has %d threads but %s system has %d", col.workload, col.threads, c.Scheme, got)
	}
	if _, err := trace.ReplayOps(sys, col.setup, col.payload); err != nil {
		return Metrics{}, nil, err
	}
	sys.SyncClocks()
	runners := make([]engine.TxRunner, col.threads)
	cursors := make([]*trace.Cursor, col.threads)
	for t := range runners {
		cur := cursorPool.Get().(*trace.Cursor)
		cur.Reset(col.workload, t, col.measured[t], col.payload)
		cursors[t] = cur
		runners[t] = cur
	}
	met := measureWindow(sys, c.Txs, c.Sink, func(txs int) { sys.Run(runners, txs) })
	for _, cur := range cursors {
		cur.Reset("", 0, nil, nil)
		cursorPool.Put(cur)
	}
	return met, sys, nil
}
