package workload

import (
	"reflect"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
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
	if len(cap.Setup) == 0 || len(cap.Measured) != cap.Threads {
		t.Fatalf("capture holds %d setup ops and %d threads' streams", len(cap.Setup), len(cap.Measured))
	}
	// Setup ops must all close their transactions (no tx spans the
	// boundary), and every thread's measured stream must carry at least
	// the padding floor beyond the capture's own consumption.
	last := make([]byte, cap.Threads)
	for _, op := range cap.Setup {
		last[op.Thread] = op.Kind
	}
	for th, k := range last {
		if k != 0 && k != trace.OpTxEnd && k != trace.OpTxAbort {
			t.Fatalf("setup prefix leaves thread %d's transaction open", th)
		}
	}
	total := 0
	for th, s := range cap.Measured {
		if len(s) == 0 {
			t.Fatalf("thread %d has no measured transactions", th)
		}
		total += len(s)
	}
	if total < txs+2*padFloor {
		t.Fatalf("measured streams carry %d txs, want >= %d committed plus padding", total, txs+2*padFloor)
	}
}

// captureSystem builds the small two-thread system the capture tests run
// on, abortable so abort-injecting workloads can run.
func captureSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.Abortable = true
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// abortMixWL is a per-thread-partitioned workload that aborts every fourth
// transaction, so padding exercises TxAbort's rollback on a detached
// system.
func abortMixWL() Workload {
	return Workload{
		Name: "abort-mix",
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			rng := sim.NewRand(seed)
			words := min(int(region.Size/8), 1024)
			for i := 0; i < 32; i++ {
				env.TxBegin()
				env.WriteWord(region.Base+mem.PAddr(i*8), rng.Uint64())
				env.TxEnd()
			}
			n := 0
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				for j := 0; j < 1+rng.Intn(3); j++ {
					a := region.Base + mem.PAddr(rng.Intn(words))*8
					// Read-modify-write: an abort that failed to roll the
					// view back would change every later value.
					env.WriteWord(a, env.ReadWord(a)^rng.Uint64())
				}
				if n%4 == 3 {
					env.TxAbort()
				} else {
					env.TxEnd()
				}
				n++
			})
		},
	}
}

// simulatedPaddingCapture is Capture without the Detach: its padding
// transactions run through the full cache, scheme and clock model. It is
// the oracle the detached padding must match.
func simulatedPaddingCapture(sys *engine.System, w Workload, seed uint64, txs int) (*Captured, error) {
	sink := &trace.OpSink{}
	sys.Subscribe(sink, trace.RecordMask)
	runners := w.Runners(sys, seed)
	setupOps := sink.Len()
	sys.Run(runners, txs)
	return padAndSplit(sys, w.Name, runners, sink, setupOps)
}

// TestDetachedPaddingMatchesSimulated holds the detached padding to its
// oracle: for every registered workload and an abort-injecting one, on
// every scheme, the capture's setup ops, per-thread transactions and
// payload are bit-identical to those of a twin capture whose padding is
// fully simulated. The twin's system must have simulated the padding (its
// transaction count moved past the window) while the detached one refuses
// Run and Snapshot.
func TestDetachedPaddingMatchesSimulated(t *testing.T) {
	const txs = 60
	wls := []Workload{abortMixWL()}
	for _, name := range Registered() {
		wls = append(wls, MustBuild(name, Options{Keys: 256}))
	}
	for _, scheme := range engine.AllSchemes {
		for _, w := range wls {
			sys := captureSystem(t, scheme)
			got, err := Capture(sys, w, 5, func(runners []engine.TxRunner) { sys.Run(runners, txs) })
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, scheme, err)
			}
			twinSys := captureSystem(t, scheme)
			want, err := simulatedPaddingCapture(twinSys, w, 5, txs)
			if err != nil {
				t.Fatalf("%s on %s: twin: %v", w.Name, scheme, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: detached padding recorded a different capture than simulated padding", w.Name, scheme)
			}
			if snap := twinSys.Snapshot(); snap.Txs+snap.Aborts <= txs {
				t.Fatalf("%s on %s: twin ran %d transactions, want padding past the %d-transaction window", w.Name, scheme, snap.Txs+snap.Aborts, txs)
			}
			for what, f := range map[string]func(){
				"Run":      func() { sys.Run(make([]engine.TxRunner, 2), 1) },
				"Snapshot": func() { sys.Snapshot() },
			} {
				if !panics(f) {
					t.Fatalf("%s on %s: %s on a detached system did not panic", w.Name, scheme, what)
				}
			}
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
