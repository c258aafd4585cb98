// Package cctest is the model-checking harness for the concurrency-control
// layer: it runs seeded conflicting workloads through cc.Runner over a real
// simulated system (any persistence scheme) and checks the recorded history
// against a sequential-specification oracle — every committed transaction,
// replayed in commit order against a plain map, must have observed exactly
// the values the replay produces (serializability by commit order), and the
// system's final logical state must match the replay's final state.
//
// The oracle has teeth: cc.PolicyBrokenNoReadLocks (two-phase locking
// without read locks) admits lost updates, and the tests assert the oracle
// rejects it while accepting OCC and wound-wait 2PL under every scheme.
package cctest

import (
	"fmt"

	"hoop/internal/cc"
	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/workload"
)

// Config is one seeded concurrent workload.
type Config struct {
	Scheme  string
	Policy  cc.Policy
	Seed    uint64
	Threads int
	Txs     int // total committed transactions across all threads
	// PoolWords is the shared word pool size: every access targets one of
	// the first PoolWords words of the home region. Small pools force
	// line-level conflicts.
	PoolWords int
	// OpsPerTx is the number of read-modify-write pairs per transaction.
	OpsPerTx int
	// Theta is the Zipfian skew over the pool (0 = uniform-ish; 0.99 =
	// YCSB default; higher = hotter).
	Theta float64
}

// withDefaults fills zero fields with small-but-conflicting defaults.
func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Txs == 0 {
		c.Txs = 48
	}
	if c.PoolWords == 0 {
		c.PoolWords = 16
	}
	if c.OpsPerTx == 0 {
		c.OpsPerTx = 3
	}
	if c.Theta == 0 {
		c.Theta = 0.9
	}
	return c
}

// NewSystem builds an abortable engine system for scheme with the given
// thread count, sized for the harness's small workloads: a 256 MiB device
// keeps recovery scans (proportional to log-region capacity) fast enough
// for exhaustive crash/recover drivers. More threads than the default
// core count get a core each, with the cache and the memory controller
// sized to match.
func NewSystem(scheme string, threads int) (*engine.System, error) {
	cfg := engine.DefaultConfig(scheme)
	cfg.Threads = threads
	if threads > cfg.Cores {
		cfg.Cores = threads
		cfg.Cache.Cores = max(cfg.Cache.Cores, threads)
		cfg.Ctrl.Agents = max(cfg.Ctrl.Agents, threads+2)
	}
	cfg.Abortable = true
	cfg.NVM.Capacity = 256 << 20
	cfg.OOPBytes = 16 << 20
	return engine.New(cfg)
}

// Run executes the seeded workload and returns the recorded history and
// the system it ran on. Each thread issues read-modify-write transactions
// over the shared Zipfian-skewed word pool, so transactions genuinely
// conflict; the policy resolves them. Deterministic: same Config, same
// history, bit for bit.
func Run(c Config) (*cc.History, *engine.System, error) {
	c = c.withDefaults()
	sys, err := NewSystem(c.Scheme, c.Threads)
	if err != nil {
		return nil, nil, err
	}
	r, err := cc.New(sys, cc.Config{Policy: c.Policy, Record: true})
	if err != nil {
		return nil, nil, err
	}
	r.Run(Sources(c), c.Txs)
	return r.History(), sys, nil
}

// Sources builds the per-thread transaction sources for c: the shared-key
// Zipfian read-modify-write workload from internal/workload, the same
// shape the harness contention figure measures.
func Sources(c Config) []cc.TxSource {
	c = c.withDefaults()
	return workload.Contention{Keys: c.PoolWords, OpsPerTx: c.OpsPerTx, Theta: c.Theta}.
		Sources(c.Threads, c.Seed)
}

// Violation is one serializability failure: a committed transaction whose
// recorded read does not match the sequential replay.
type Violation struct {
	Commit int // index into History.Commits
	Thread int
	Op     int // index into CommittedTx.Ops
	Addr   mem.PAddr
	Got    uint64 // value the transaction observed
	Want   uint64 // value the sequential replay produces
}

func (v *Violation) Error() string {
	return fmt.Sprintf("cctest: serializability violation at commit %d (thread %d) op %d: read %#x observed %d, sequential replay expects %d",
		v.Commit, v.Thread, v.Op, uint64(v.Addr), v.Got, v.Want)
}

// Check replays the history's committed transactions in commit order
// against a map specification (absent words start at zero, matching a
// fresh store) and returns a Violation for the first read that observed a
// value no sequential execution in that order could have produced. A nil
// return means the history is serializable in commit order.
func Check(h *cc.History) error {
	spec := make(map[mem.PAddr]uint64)
	for ci := range h.Commits {
		tx := &h.Commits[ci]
		for oi, op := range tx.Ops {
			switch op.Kind {
			case cc.OpRead:
				if want := spec[op.Addr]; op.Val != want {
					return &Violation{Commit: ci, Thread: tx.Thread, Op: oi, Addr: op.Addr, Got: op.Val, Want: want}
				}
			case cc.OpWrite:
				spec[op.Addr] = op.Val
			}
		}
	}
	return nil
}

// CheckFinalState verifies that the system's logical view agrees with the
// sequential replay's final state — the policy must have installed exactly
// the writes it recorded, in the order it recorded them.
func CheckFinalState(h *cc.History, sys *engine.System) error {
	spec := make(map[mem.PAddr]uint64)
	for ci := range h.Commits {
		for _, op := range h.Commits[ci].Ops {
			if op.Kind == cc.OpWrite {
				spec[op.Addr] = op.Val
			}
		}
	}
	var buf [mem.WordSize]byte
	for addr, want := range spec {
		sys.View().Read(addr, buf[:])
		var got uint64
		for i := 0; i < mem.WordSize; i++ {
			got |= uint64(buf[i]) << (8 * uint(i))
		}
		if got != want {
			return fmt.Errorf("cctest: final state mismatch at %#x: view holds %d, replay expects %d", uint64(addr), got, want)
		}
	}
	return nil
}
