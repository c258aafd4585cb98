package cctest

import (
	"fmt"
	"testing"
	"testing/quick"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/sim"
)

// TestSerializableAllSchemes is the exhaustive driver: every scheme ×
// every sound policy × a grid of seeds, each history checked against the
// sequential-specification oracle and the final-state replay.
func TestSerializableAllSchemes(t *testing.T) {
	for _, scheme := range engine.AllSchemes {
		for _, policy := range cc.Policies {
			t.Run(fmt.Sprintf("%s/%s", scheme, policy), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					h, sys, err := Run(Config{Scheme: scheme, Policy: policy, Seed: seed})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if err := Check(h); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
					if err := CheckFinalState(h, sys); err != nil {
						t.Errorf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestManyThreads runs more threads than the default core count: the
// system grows its cores, cache and memory controller to match, and the
// history must still be serializable under every sound policy.
func TestManyThreads(t *testing.T) {
	for _, policy := range cc.Policies {
		h, sys, err := Run(Config{Scheme: engine.SchemeHOOP, Policy: policy, Seed: 1, Threads: 20, Txs: 80})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if got := sys.Config().Threads; got != 20 {
			t.Fatalf("%s: system runs %d threads, want 20", policy, got)
		}
		if err := Check(h); err != nil {
			t.Errorf("%s: %v", policy, err)
		}
		if err := CheckFinalState(h, sys); err != nil {
			t.Errorf("%s: %v", policy, err)
		}
	}
}

// TestRandomizedHistories is the randomized driver: larger, hotter
// workloads with more threads, seeds drawn from a seeded generator so the
// run is reproducible yet covers fresh interleavings when the grid grows.
func TestRandomizedHistories(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized driver skipped in -short")
	}
	rng := sim.NewRand(0xCC7E57)
	for _, scheme := range []string{engine.SchemeHOOP, engine.SchemeUndo, engine.SchemeNative} {
		for _, policy := range cc.Policies {
			for i := 0; i < 5; i++ {
				cfg := Config{
					Scheme:    scheme,
					Policy:    policy,
					Seed:      rng.Uint64(),
					Threads:   8,
					Txs:       160,
					PoolWords: 8,
					OpsPerTx:  1 + rng.Intn(4),
					Theta:     1.1,
				}
				h, sys, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %#x: %v", scheme, policy, cfg.Seed, err)
				}
				if err := Check(h); err != nil {
					t.Errorf("%s/%s seed %#x: %v", scheme, policy, cfg.Seed, err)
				}
				if err := CheckFinalState(h, sys); err != nil {
					t.Errorf("%s/%s seed %#x: %v", scheme, policy, cfg.Seed, err)
				}
			}
		}
	}
}

// TestConflictsActuallyHappen guards the harness against vacuity: a hot
// single-line pool with many threads must produce aborts under both sound
// policies — otherwise the serializability checks above prove nothing.
func TestConflictsActuallyHappen(t *testing.T) {
	for _, policy := range cc.Policies {
		total := 0
		for seed := uint64(1); seed <= 3; seed++ {
			h, _, err := Run(Config{
				Scheme: engine.SchemeNative, Policy: policy, Seed: seed,
				Threads: 8, Txs: 120, PoolWords: 4, OpsPerTx: 3, Theta: 1.2,
			})
			if err != nil {
				t.Fatal(err)
			}
			total += h.Aborts
		}
		if total == 0 {
			t.Errorf("policy %s: hot workload produced zero aborts — conflicts are not being exercised", policy)
		}
	}
}

// TestBrokenPolicyRejected proves the oracle has teeth: two-phase locking
// without read locks admits lost updates, and the oracle must catch at
// least one across the seed grid (in practice it catches most seeds).
func TestBrokenPolicyRejected(t *testing.T) {
	violations := 0
	for seed := uint64(1); seed <= 8; seed++ {
		h, _, err := Run(Config{
			Scheme: engine.SchemeNative, Policy: cc.PolicyBrokenNoReadLocks, Seed: seed,
			Threads: 8, Txs: 160, PoolWords: 2, OpsPerTx: 2, Theta: 1.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(h); err != nil {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("oracle accepted every broken-no-read-locks history — the serializability check has no teeth")
	}
}

// TestDeterministicHistories: the runner's step loop must
// be invisible to results — the same Config yields a byte-identical
// history every run.
func TestDeterministicHistories(t *testing.T) {
	for _, policy := range cc.Policies {
		cfg := Config{Scheme: engine.SchemeHOOP, Policy: policy, Seed: 7,
			Threads: 6, Txs: 90, PoolWords: 4, OpsPerTx: 3, Theta: 1.1}
		a, _, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Aborts != b.Aborts || len(a.Commits) != len(b.Commits) {
			t.Fatalf("policy %s: history shape diverged across identical runs: %d/%d commits, %d/%d aborts",
				policy, len(a.Commits), len(b.Commits), a.Aborts, b.Aborts)
		}
		for i := range a.Commits {
			ca, cb := &a.Commits[i], &b.Commits[i]
			if ca.Thread != cb.Thread || ca.Attempt != cb.Attempt || len(ca.Ops) != len(cb.Ops) {
				t.Fatalf("policy %s: commit %d diverged", policy, i)
			}
			for j := range ca.Ops {
				if ca.Ops[j] != cb.Ops[j] {
					t.Fatalf("policy %s: commit %d op %d diverged: %+v vs %+v", policy, i, j, ca.Ops[j], cb.Ops[j])
				}
			}
		}
	}
}

// abortRetryTx is one transaction of the abort-retry property workload.
type abortRetryTx struct {
	words map[mem.PAddr]uint64
}

// buildAbortRetryTxs derives a deterministic transaction list from seed.
func buildAbortRetryTxs(seed uint64) []abortRetryTx {
	rng := sim.NewRand(seed)
	txs := make([]abortRetryTx, 6)
	for i := range txs {
		n := rng.Range(1, 6)
		words := make(map[mem.PAddr]uint64, n)
		for j := 0; j < n; j++ {
			words[mem.PAddr(rng.Intn(64)*mem.WordSize)] = rng.Uint64()
		}
		txs[i] = abortRetryTx{words: words}
	}
	return txs
}

func runTxWrites(env *engine.Env, words map[mem.PAddr]uint64) {
	for _, a := range sortedAddrs(words) {
		env.WriteWord(a, words[a])
	}
}

func sortedAddrs(words map[mem.PAddr]uint64) []mem.PAddr {
	addrs := make([]mem.PAddr, 0, len(words))
	for a := range words {
		addrs = append(addrs, a)
	}
	for i := 1; i < len(addrs); i++ {
		for j := i; j > 0 && addrs[j-1] > addrs[j]; j-- {
			addrs[j-1], addrs[j] = addrs[j], addrs[j-1]
		}
	}
	return addrs
}

// TestAbortRetryByteIdentical is the abort-then-retry property (checked
// with testing/quick over random seeds): for every scheme, executing each
// transaction as abort-then-retry leaves both the logical view and the
// post-crash recovered home region byte-identical to executing it once.
// An abort path that leaks durable state (or fails to neutralize it)
// breaks the recovered-image comparison.
func TestAbortRetryByteIdentical(t *testing.T) {
	for _, scheme := range engine.AllSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			f := func(seed uint64) bool {
				txs := buildAbortRetryTxs(seed)

				once, err := NewSystem(scheme, 1)
				if err != nil {
					t.Fatal(err)
				}
				twice, err := NewSystem(scheme, 1)
				if err != nil {
					t.Fatal(err)
				}
				envOnce := once.NewEnv(0)
				envTwice := twice.NewEnv(0)
				for _, tx := range txs {
					envOnce.TxBegin()
					runTxWrites(envOnce, tx.words)
					envOnce.TxEnd()

					// Same transaction, but the first attempt aborts just
					// before commit and the retry re-executes it.
					envTwice.TxBegin()
					runTxWrites(envTwice, tx.words)
					envTwice.TxAbort()
					envTwice.TxBegin()
					runTxWrites(envTwice, tx.words)
					envTwice.TxEnd()
				}

				// The logical views must agree word for word.
				var ba, bb [mem.WordSize]byte
				for w := 0; w < 64; w++ {
					a := mem.PAddr(w * mem.WordSize)
					once.View().Read(a, ba[:])
					twice.View().Read(a, bb[:])
					if ba != bb {
						t.Logf("seed %d: view mismatch at %#x: %x vs %x", seed, uint64(a), ba, bb)
						return false
					}
				}

				// And so must the recovered durable home region.
				for _, sys := range []*engine.System{once, twice} {
					sys.DrainCache()
					sys.Crash()
					if _, err := sys.Recover(1); err != nil {
						t.Fatalf("seed %d: recover: %v", seed, err)
					}
				}
				for w := 0; w < 64; w++ {
					a := mem.PAddr(w * mem.WordSize)
					once.Durable().Read(a, ba[:])
					twice.Durable().Read(a, bb[:])
					if ba != bb {
						t.Logf("seed %d: recovered home mismatch at %#x: %x vs %x", seed, uint64(a), ba, bb)
						return false
					}
				}
				return true
			}
			cfgQuick := &quick.Config{MaxCount: 4}
			if testing.Short() {
				cfgQuick.MaxCount = 1
			}
			if err := quick.Check(f, cfgQuick); err != nil {
				t.Error(err)
			}
		})
	}
}
