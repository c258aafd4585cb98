package harness

import (
	"bytes"
	"reflect"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/trace"
	"hoop/internal/workload"
)

// smallMut shrinks a system for fast equivalence runs; Abortable so the
// abort-injecting workload runs on every scheme.
func smallMut(cfg *engine.Config) {
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 2, 2, 2
	cfg.Ctrl.Agents = 4
	cfg.NVM.Capacity = 1 << 30
	cfg.OOPBytes = 64 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	cfg.Abortable = true
}

// abortMixWL is a per-thread-partitioned workload that aborts every
// fourth transaction, exercising the trace v2 abort path end to end.
func abortMixWL() workload.Workload {
	return workload.Workload{
		Name: "abort-mix",
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			rng := sim.NewRand(seed)
			words := int(region.Size / 8)
			if words > 1024 {
				words = 1024
			}
			// Setup: seed a few words so aborted updates have pre-images.
			for i := 0; i < 32; i++ {
				env.TxBegin()
				env.WriteWord(region.Base+mem.PAddr(i*8), rng.Uint64())
				env.TxEnd()
			}
			n := 0
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				for j := 0; j < 1+rng.Intn(3); j++ {
					env.WriteWord(region.Base+mem.PAddr(rng.Intn(words))*8, rng.Uint64())
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

// storesEqual compares two durable images bit for bit (absent pages read
// as zeros, so both directions are checked).
func storesEqual(a, b *mem.Store) bool {
	eq := true
	check := func(x, y *mem.Store) {
		x.ForEachPageUntil(func(base mem.PAddr, data []byte) bool {
			buf := make([]byte, len(data))
			y.Read(base, buf)
			if !bytes.Equal(data, buf) {
				eq = false
				return false
			}
			return true
		})
	}
	check(a, b)
	if eq {
		check(b, a)
	}
	return eq
}

// TestReplayMatchesDirect is the record/replay equivalence property: for
// seeded workloads — including an abort-injecting one — on all schemes,
// capturing on the first scheme and replaying on each produces the same
// Metrics window and the same final durable image as direct execution.
func TestReplayMatchesDirect(t *testing.T) {
	const txs = 150
	hot := workload.MustBuild("hashmap", workload.Options{ValBytes: 64, Keys: 512})
	for _, wl := range []workload.Workload{hot, abortMixWL()} {
		capCell := Cell{Scheme: engine.AllSchemes[0], Workload: wl, Txs: txs, Seed: 7, Mut: smallMut}
		capMet, col, _, err := captureCellRun(capCell)
		if err != nil {
			t.Fatalf("%s: capture: %v", wl.Name, err)
		}
		if wl.Name == "abort-mix" {
			found := false
			for _, seg := range col.Measured[0] {
				if seg[len(seg)-1].Kind == trace.OpTxAbort {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("abort-mix capture carries no abort ops")
			}
		}
		for _, scheme := range engine.AllSchemes {
			cell := Cell{Scheme: scheme, Workload: wl, Txs: txs, Seed: 7, Mut: smallMut}
			directSys, err := buildSystem(scheme, smallMut)
			if err != nil {
				t.Fatal(err)
			}
			runners := wl.Runners(directSys, cell.Seed)
			directMet := measureWindow(directSys, txs, nil, func(n int) { directSys.Run(runners, n) })
			repMet, repSys, err := replayCellRun(cell, col)
			if err != nil {
				t.Fatalf("%s on %s: replay: %v", wl.Name, scheme, err)
			}
			if !reflect.DeepEqual(directMet, repMet) {
				t.Errorf("%s on %s: replay metrics diverge\ndirect: %+v\nreplay: %+v", wl.Name, scheme, directMet, repMet)
			}
			if !storesEqual(directSys.Durable(), repSys.Durable()) {
				t.Errorf("%s on %s: replay durable image diverges from direct execution", wl.Name, scheme)
			}
			if scheme == capCell.Scheme {
				// The capture cell's own window must equal direct too.
				// (Durable images are not compared here: the capture
				// system legitimately runs padding transactions after its
				// window closes.)
				if !reflect.DeepEqual(directMet, capMet) {
					t.Errorf("%s: capture metrics diverge from direct\ndirect: %+v\ncapture: %+v", wl.Name, directMet, capMet)
				}
			}
		}
	}
}
