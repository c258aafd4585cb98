package harness

import (
	"math"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
)

// TestMetricsAbortWindowing asserts the harness measurement window carries
// abort accounting end to end: aborts inside the window land in
// Metrics.Aborts (and AbortRate), aborts before the window do not.
func TestMetricsAbortWindowing(t *testing.T) {
	cfg := engine.DefaultConfig(engine.SchemeNative)
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NewEnv(0)
	runTx := func(abort bool) {
		env.TxBegin()
		env.WriteWord(mem.PAddr(0x4000), 7)
		if abort {
			env.TxAbort()
		} else {
			env.TxEnd()
		}
	}
	// Pre-window abort that must not be measured.
	runTx(true)
	before := sys.Snapshot()
	runTx(true)
	runTx(false)
	runTx(true)
	runTx(false)
	runTx(false)
	m := window(before, sys.Snapshot())
	if m.Aborts != 2 {
		t.Errorf("Metrics.Aborts = %d, want 2", m.Aborts)
	}
	if m.Txs != 3 {
		t.Errorf("Metrics.Txs = %d, want 3", m.Txs)
	}
	if got, want := m.AbortRate(), 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("AbortRate() = %v, want %v", got, want)
	}
}

// TestAbortRateEmptyWindow pins the degenerate case: an empty window must
// report a zero abort rate, not NaN.
func TestAbortRateEmptyWindow(t *testing.T) {
	var m Metrics
	if got := m.AbortRate(); got != 0 {
		t.Errorf("AbortRate() on empty window = %v, want 0", got)
	}
}
