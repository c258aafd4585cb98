package workload

import (
	"bytes"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/trace"
)

func TestCaptureShape(t *testing.T) {
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 100
	cap, err := Capture(sys, MustBuild("queue", Options{ValBytes: 64, Keys: 512}), 5, func(runners []engine.TxRunner) {
		sys.Run(runners, txs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cap.Workload != "queue-64" || cap.Threads != 2 {
		t.Fatalf("capture meta wrong: %+v", cap)
	}
	if cap.SetupOps <= 0 || cap.SetupOps >= len(cap.Ops) {
		t.Fatalf("setup boundary %d of %d ops", cap.SetupOps, len(cap.Ops))
	}
	// The wire bytes decode back to exactly Ops.
	wire, err := trace.WriteOps(cap.Ops)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.NewReader(bytes.NewReader(wire)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(cap.Ops) {
		t.Fatalf("wire bytes decode to %d ops, struct has %d", len(decoded), len(cap.Ops))
	}
	// Setup ops must all close their transactions (no tx spans the
	// boundary), and every thread's measured stream must carry at least
	// the padding floor beyond the capture's own consumption.
	if _, err := trace.SplitTxs(cap.Ops[:cap.SetupOps], cap.Threads); err != nil {
		t.Fatalf("setup prefix is not transaction-closed: %v", err)
	}
	segs, err := trace.SplitTxs(cap.Ops[cap.SetupOps:], cap.Threads)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for th, s := range segs {
		if len(s) == 0 {
			t.Fatalf("thread %d has no measured transactions", th)
		}
		total += len(s)
	}
	if total < txs+2*padFloor {
		t.Fatalf("measured streams carry %d txs, want >= %d committed plus padding", total, txs+2*padFloor)
	}
}
