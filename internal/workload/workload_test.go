package workload

import (
	"fmt"
	"math"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/sim"
)

func testSystem(t *testing.T, scheme string) *engine.System {
	t.Helper()
	cfg := engine.DefaultConfig(scheme)
	cfg.Cores, cfg.Threads, cfg.Cache.Cores = 4, 2, 4
	cfg.Ctrl.Agents = 6
	cfg.NVM.Capacity = 8 << 30
	cfg.OOPBytes = 128 << 20
	cfg.Hoop.CommitLogBytes = 1 << 20
	sys, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(sim.NewRand(1), 1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must be the hottest and dramatically hotter than the median.
	if counts[0] < counts[500]*10 {
		t.Fatalf("distribution not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Zipf 0.99: the head should hold a large share.
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.5 {
		t.Fatalf("head share %.2f too small for theta=0.99", float64(head)/n)
	}
}

// zipfNextPerDraw is Next with the rank-1 bound recomputed on every
// draw, as the generator did before NewZipf cached it.
func zipfNextPerDraw(z *Zipf) uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// TestZipfCachedBoundMatchesPerDraw: the cached 1 + 0.5^θ bound is the
// same float64 as the per-draw formula and yields the same 100k draws, for
// every θ the repository draws with (contention figure 0.5/0.9/1.2, cctest
// 0.9, YCSB and loadgen 0.99).
func TestZipfCachedBoundMatchesPerDraw(t *testing.T) {
	for _, theta := range []float64{0.5, 0.9, 0.99, 1.2} {
		got := NewZipf(sim.NewRand(11), 4096, theta)
		want := NewZipf(sim.NewRand(11), 4096, theta)
		if got.rank1 != 1.0+math.Pow(0.5, theta) {
			t.Fatalf("theta %v: cached bound %v is not 1 + 0.5^theta", theta, got.rank1)
		}
		ranks1 := 0
		for i := 0; i < 100000; i++ {
			g, w := got.Next(), zipfNextPerDraw(want)
			if g != w {
				t.Fatalf("theta %v draw %d: %d, per-draw formula %d", theta, i, g, w)
			}
			if g == 1 {
				ranks1++
			}
		}
		if ranks1 == 0 {
			t.Fatalf("theta %v: no draw reached the rank-1 branch", theta)
		}
	}
}

func TestZipfDeterminism(t *testing.T) {
	a := NewZipf(sim.NewRand(42), 512, 0.99)
	b := NewZipf(sim.NewRand(42), 512, 0.99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Zipf must be deterministic for equal seeds")
		}
	}
}

func TestAllWorkloadsExecute(t *testing.T) {
	suite := append(PaperSuite(Options{}), LargeItemSuite(Options{})...)
	for _, w := range suite {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			sys := testSystem(t, engine.SchemeHOOP)
			runners := w.Runners(sys, 7)
			sys.Run(runners, 200)
			snap := sys.Snapshot()
			if snap.Txs < 200 {
				t.Fatalf("ran %d txs", snap.Txs)
			}
			if snap.Stores == 0 {
				t.Fatal("workload issued no stores")
			}
			t.Logf("%s: %d loads, %d stores, span %v", w.Name, snap.Loads, snap.Stores, sys.MaxClock())
		})
	}
}

// TestStoresPerTxMatchTableIII checks the measured store counts land in
// each benchmark's Table III band.
func TestStoresPerTxMatchTableIII(t *testing.T) {
	type band struct {
		w        Workload
		min, max float64
	}
	bands := []band{
		{Vector(64), 6, 12},
		{HashMapWL(64), 5, 13},
		{QueueWL(64), 3, 9},
		{RBTreeWL(64), 2, 10},
		{BTreeWL(64), 2, 12},
		{YCSB(1024), 8, 34},
		{TPCC(), 10, 35},
	}
	for _, b := range bands {
		b := b
		t.Run(b.w.Name, func(t *testing.T) {
			sys := testSystem(t, engine.SchemeNative)
			runners := b.w.Runners(sys, 11)
			setup := sys.Snapshot()
			sys.Run(runners, 500)
			win := sys.Snapshot().Delta(setup)
			perTx := float64(win.Stores) / float64(win.Txs)
			if perTx < b.min || perTx > b.max {
				t.Fatalf("%s: %.1f stores/tx outside [%v,%v]", b.w.Name, perTx, b.min, b.max)
			}
			t.Logf("%s: %.1f stores/tx", b.w.Name, perTx)
		})
	}
}

// TestYCSBWriteReadMix verifies the 80/20 update/read operation mix.
func TestYCSBWriteReadMix(t *testing.T) {
	sys := testSystem(t, engine.SchemeNative)
	runners := YCSB(512).Runners(sys, 3)
	sys.Run(runners, 2000)
	st := sys.Snapshot()
	// Each update op issues value-size/64 stores; reads issue loads via
	// table.Read. We sanity-check that both happen in bulk.
	if st.Counter(sim.StatTxStores) == 0 || st.Counter(sim.StatTxLoads) == 0 {
		t.Fatal("mix missing loads or stores")
	}
}

// TestTPCCWriteReadMix verifies Table III's 40%/60% write/read operation
// ratio for the new-order transaction.
func TestTPCCWriteReadMix(t *testing.T) {
	sys := testSystem(t, engine.SchemeNative)
	runners := TPCC().Runners(sys, 5)
	before := sys.Snapshot()
	sys.Run(runners, 1500)
	win := sys.Snapshot().Delta(before)
	loads, stores := float64(win.Loads), float64(win.Stores)
	frac := stores / (stores + loads)
	if frac < 0.28 || frac > 0.52 {
		t.Fatalf("TPC-C write fraction %.2f outside Table III's ~40%%", frac)
	}
	t.Logf("TPC-C write fraction: %.2f", frac)
}

// TestSyntheticAllWriteOnly verifies Table III's 100%/0% write/read column:
// the synthetic structures issue no reads beyond structure traversal
// (loads still happen — pointer chases — but every *operation* mutates).
func TestVectorScatteredUpdatesSpreadLines(t *testing.T) {
	sys := testSystem(t, engine.SchemeNative)
	runners := Vector(64).Runners(sys, 9)
	sys.Run(runners, 400)
	snap := sys.Snapshot()
	if snap.Txs < 400 {
		t.Fatal("vector did not run")
	}
	// The batch-update halves must dirty several distinct lines per tx,
	// visible as stores spread over more lines than a pure-append run
	// would touch; sanity-check via the store count per tx (8 scattered
	// word stores or 9 insert stores).
	perTx := float64(snap.Stores) / float64(snap.Txs)
	if perTx < 6 || perTx > 12 {
		t.Fatalf("vector stores/tx = %.1f", perTx)
	}
}

// TestRunnerSeedsDistinctAcrossExperimentSeeds locks the Runners seed
// derivation. The old seed+t*0x9E37+1 arithmetic collided across adjacent
// experiment seeds at high thread counts (seed 1, thread 41 drew the same
// stream as seed 2, thread 40), silently correlating runs that tests
// treated as independent. The splitmix64 derivation shared with
// engine.ShardSeed must stay pairwise distinct over a dense grid.
func TestRunnerSeedsDistinctAcrossExperimentSeeds(t *testing.T) {
	seen := map[uint64]string{}
	for seed := uint64(1); seed <= 8; seed++ {
		for th := 0; th < 64; th++ {
			v := engine.ShardSeed(seed, th)
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed collision: (seed %d, thread %d) == %s", seed, th, prev)
			}
			seen[v] = fmt.Sprintf("(seed %d, thread %d)", seed, th)
		}
	}
}

func TestZipfZetaSane(t *testing.T) {
	// zeta(n, 0) == n
	if got := zeta(100, 0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("zeta(100,0) = %f", got)
	}
}

// Vector is the Table III vector benchmark with the given item size
// (8 stores per transaction at 64-byte items, write-only).
func Vector(itemBytes int) Workload { return MustBuild("vector", Options{ValBytes: itemBytes}) }

// BTreeWL is the Table III B-tree benchmark (2–12 stores per transaction
// depending on node splits).
func BTreeWL(itemBytes int) Workload { return MustBuild("btree", Options{ValBytes: itemBytes}) }
