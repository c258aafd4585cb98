package workload

import (
	"fmt"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/pmem"
	"hoop/internal/sim"
	"hoop/internal/structures"
)

// Workload describes one benchmark and knows how to build its per-thread
// runners. Table III's microbenchmarks, YCSB A–F, and the service patterns
// are all instances constructed through the registry (Build/MustBuild).
type Workload struct {
	// Name as shown in the paper's figures, e.g. "hashmap-64".
	Name string
	// Desc is the Table III description.
	Desc string
	// StoresPerTx is the Table III stores-per-transaction column.
	StoresPerTx string
	// WriteRead is the Table III write/read ratio column.
	WriteRead string
	// Opts records the fully resolved options the factory built the
	// workload with. Together with Name it identifies the workload's
	// behavior; the harness cell cache keys on the pair.
	Opts Options
	// NeedsAbort marks workloads that call env.TxAbort; the harness
	// forces Config.Abortable for their cells.
	NeedsAbort bool
	// Build constructs the runner for one thread, performing its setup
	// transactions (initial population) through env.
	Build func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner
}

// Runners instantiates one runner per thread over equal slices of the home
// region, running each thread's setup transactions. Per-thread seeds are
// derived with the same splitmix64 finalizer as engine.ShardSeed: the old
// seed+t*0x9E37+1 derivation collided across adjacent experiment seeds at
// high thread counts (seed 1, thread 41 == seed 2, thread 40 and so on).
func (w Workload) Runners(sys *engine.System, seed uint64) []engine.TxRunner {
	threads := sys.Config().Threads
	regions := pmem.Partition(sys.Layout().Home, threads)
	out := make([]engine.TxRunner, threads)
	for t := 0; t < threads; t++ {
		out[t] = w.Build(sys.NewEnv(t), regions[t], engine.ShardSeed(seed, t))
	}
	// Setup ran thread-by-thread; align the clocks so all threads start
	// the measured phase together.
	sys.SyncClocks()
	return out
}

// synthDefaults sizes per-thread working sets well past the 2 MB LLC so
// the native baseline shows the paper's ~12% LLC miss ratio; tests shrink
// Keys through Options for speed.
var synthDefaults = Options{ValBytes: 64, Keys: 16384, SetupFrac: 0.5}

// synVectorCap bounds vector growth.
const synVectorCap = 1 << 20

func init() {
	Register("vector", buildVector)
	Register("hashmap", buildHashMap)
	Register("queue", buildQueue)
	Register("rbtree", buildRBTree)
	Register("btree", buildBTree)
}

func fillItem(r *sim.Rand, buf []byte) {
	for i := 0; i < len(buf); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(v >> (8 * uint(j)))
		}
	}
}

// buildVector is the registry factory behind Vector.
func buildVector(opt Options) Workload {
	o := opt.withDefaults(synthDefaults)
	itemBytes := o.ValBytes
	return Workload{
		Name:        fmt.Sprintf("vector-%s", sizeTag(itemBytes)),
		Desc:        "Insert/update entries",
		StoresPerTx: "8",
		WriteRead:   "100%/0%",
		Opts:        o,
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			arena := pmem.NewArena(env, region)
			env.TxBegin()
			arena.Init()
			v := structures.NewVector(env, arena, synVectorCap, itemBytes)
			env.TxEnd()
			rng := sim.NewRand(seed)
			buf := make([]byte, itemBytes)
			// Setup: initial entries so updates have targets.
			for i := 0; i < 64; i++ {
				env.TxBegin()
				fillItem(rng, buf)
				v.Append(buf)
				env.TxEnd()
			}
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				if rng.Bool(0.5) && v.Len() < synVectorCap {
					// Insert a whole entry (8 word stores for 64 B items).
					fillItem(rng, buf)
					v.Append(buf)
				} else {
					// Batch-update one word in each of eight scattered
					// entries — the fine-granularity update pattern the
					// paper's data packing targets ([9], [53] in §III-C).
					for i := 0; i < 8; i++ {
						v.UpdateWord(rng.Intn(v.Len()), rng.Intn(itemBytes/8), rng.Uint64())
					}
				}
				env.TxEnd()
			})
		},
	}
}

// HashMapWL is the Table III hashmap benchmark with the given item size.
func HashMapWL(itemBytes int) Workload { return MustBuild("hashmap", Options{ValBytes: itemBytes}) }

// buildHashMap is the registry factory behind HashMapWL.
func buildHashMap(opt Options) Workload {
	o := opt.withDefaults(synthDefaults)
	itemBytes, keys, setup := o.ValBytes, o.Keys, o.setupKeys()
	return Workload{
		Name:        fmt.Sprintf("hashmap-%s", sizeTag(itemBytes)),
		Desc:        "Insert/update entries",
		StoresPerTx: "8",
		WriteRead:   "100%/0%",
		Opts:        o,
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			arena := pmem.NewArena(env, region)
			env.TxBegin()
			arena.Init()
			h := structures.NewHashMap(env, arena, keys/4, itemBytes)
			env.TxEnd()
			rng := sim.NewRand(seed)
			buf := make([]byte, itemBytes)
			for k := 0; k < setup; k++ {
				env.TxBegin()
				fillItem(rng, buf)
				h.Put(uint64(k), buf)
				env.TxEnd()
			}
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				if rng.Bool(0.5) {
					fillItem(rng, buf)
					h.Put(uint64(rng.Intn(keys)), buf)
				} else {
					// Eight scattered single-word field updates.
					for i := 0; i < 8; i++ {
						key := uint64(rng.Intn(keys))
						if !h.UpdateWord(key, rng.Intn(itemBytes/8), rng.Uint64()) {
							fillItem(rng, buf)
							h.Put(key, buf)
							break
						}
					}
				}
				env.TxEnd()
			})
		},
	}
}

// QueueWL is the Table III queue benchmark (~4 stores per transaction: the
// item write plus head/tail/count pointer updates).
func QueueWL(itemBytes int) Workload { return MustBuild("queue", Options{ValBytes: itemBytes}) }

// buildQueue is the registry factory behind QueueWL.
func buildQueue(opt Options) Workload {
	o := opt.withDefaults(synthDefaults)
	itemBytes := o.ValBytes
	return Workload{
		Name:        fmt.Sprintf("queue-%s", sizeTag(itemBytes)),
		Desc:        "Insert/update entries",
		StoresPerTx: "4",
		WriteRead:   "100%/0%",
		Opts:        o,
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			arena := pmem.NewArena(env, region)
			env.TxBegin()
			arena.Init()
			q := structures.NewQueue(env, arena, itemBytes)
			env.TxEnd()
			rng := sim.NewRand(seed)
			buf := make([]byte, itemBytes)
			for i := 0; i < 64; i++ {
				env.TxBegin()
				fillItem(rng, buf)
				q.Enqueue(buf)
				env.TxEnd()
			}
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				if rng.Bool(0.5) || q.Len() == 0 {
					fillItem(rng, buf)
					q.Enqueue(buf)
				} else {
					q.Dequeue(buf)
				}
				env.TxEnd()
			})
		},
	}
}

// RBTreeWL is the Table III RB-tree benchmark (2–10 stores per transaction
// depending on rebalancing).
func RBTreeWL(itemBytes int) Workload { return MustBuild("rbtree", Options{ValBytes: itemBytes}) }

// buildRBTree is the registry factory behind RBTreeWL.
func buildRBTree(opt Options) Workload {
	o := opt.withDefaults(synthDefaults)
	itemBytes, keys, setup := o.ValBytes, o.Keys, o.setupKeys()
	return Workload{
		Name:        fmt.Sprintf("rbtree-%s", sizeTag(itemBytes)),
		Desc:        "Insert/update entries",
		StoresPerTx: "2-10",
		WriteRead:   "100%/0%",
		Opts:        o,
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			arena := pmem.NewArena(env, region)
			env.TxBegin()
			arena.Init()
			tr := structures.NewRBTree(env, arena, itemBytes)
			env.TxEnd()
			rng := sim.NewRand(seed)
			buf := make([]byte, itemBytes)
			for k := 0; k < setup; k++ {
				env.TxBegin()
				fillItem(rng, buf)
				tr.Put(uint64(k*2), buf)
				env.TxEnd()
			}
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				key := uint64(rng.Intn(keys))
				// Half the transactions are sparse field updates of an
				// existing entry (the 2-store end of the Table III band);
				// misses and the other half insert whole entries.
				if rng.Bool(0.5) {
					if !tr.UpdateWord(key, rng.Intn(itemBytes/8), rng.Uint64()) {
						fillItem(rng, buf)
						tr.Put(key, buf)
					}
				} else {
					fillItem(rng, buf)
					tr.Put(key, buf)
				}
				env.TxEnd()
			})
		},
	}
}

// buildBTree is the registry factory behind BTreeWL.
func buildBTree(opt Options) Workload {
	o := opt.withDefaults(synthDefaults)
	itemBytes, keys, setup := o.ValBytes, o.Keys, o.setupKeys()
	return Workload{
		Name:        fmt.Sprintf("btree-%s", sizeTag(itemBytes)),
		Desc:        "Insert/update entries",
		StoresPerTx: "2-12",
		WriteRead:   "100%/0%",
		Opts:        o,
		Build: func(env *engine.Env, region mem.Region, seed uint64) engine.TxRunner {
			arena := pmem.NewArena(env, region)
			env.TxBegin()
			arena.Init()
			tr := structures.NewBTree(env, arena, itemBytes)
			env.TxEnd()
			rng := sim.NewRand(seed)
			buf := make([]byte, itemBytes)
			for k := 0; k < setup; k++ {
				env.TxBegin()
				fillItem(rng, buf)
				tr.Put(uint64(k*2), buf)
				env.TxEnd()
			}
			return engine.TxRunnerFunc(func(env *engine.Env) {
				env.TxBegin()
				key := uint64(rng.Intn(keys))
				if rng.Bool(0.5) {
					if !tr.UpdateWord(key, rng.Intn(itemBytes/8), rng.Uint64()) {
						fillItem(rng, buf)
						tr.Put(key, buf)
					}
				} else {
					fillItem(rng, buf)
					tr.Put(key, buf)
				}
				env.TxEnd()
			})
		},
	}
}

func sizeTag(itemBytes int) string {
	if itemBytes >= 1024 {
		return fmt.Sprintf("%dk", itemBytes/1024)
	}
	return fmt.Sprintf("%d", itemBytes)
}

// PaperSuite returns the seven benchmarks of Figures 7–9 — the five
// synthetic structures with 64-byte items, YCSB with 1 KB pairs, and
// TPC-C new-order — with base overlaid on each member's defaults.
func PaperSuite(base Options) []Workload {
	return []Workload{
		MustBuild("vector", base), MustBuild("hashmap", base), MustBuild("queue", base),
		MustBuild("rbtree", base), MustBuild("btree", base),
		MustBuild("ycsb", base), MustBuild("tpcc", base),
	}
}

// LargeItemSuite returns the 1 KB-item variants of the synthetic
// benchmarks (each Table III workload has a second data set of 1 KB items).
func LargeItemSuite(base Options) []Workload {
	base.ValBytes = 1024
	return []Workload{
		MustBuild("vector", base), MustBuild("hashmap", base), MustBuild("queue", base),
		MustBuild("rbtree", base), MustBuild("btree", base),
	}
}

// SyntheticSuite returns just the five 64-byte synthetic benchmarks
// (Figure 10 and Table IV use these).
func SyntheticSuite(base Options) []Workload {
	return []Workload{
		MustBuild("vector", base), MustBuild("hashmap", base), MustBuild("queue", base),
		MustBuild("rbtree", base), MustBuild("btree", base),
	}
}
