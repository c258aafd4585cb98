package engine

import (
	"fmt"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// TxRunner is one workload thread: each RunTx call executes exactly one
// transaction against the environment.
type TxRunner interface {
	RunTx(env *Env)
}

// TxRunnerFunc adapts a function to TxRunner.
type TxRunnerFunc func(env *Env)

// RunTx implements TxRunner.
func (f TxRunnerFunc) RunTx(env *Env) { f(env) }

// Run executes totalTxs transactions spread over the runners (one per
// thread), always advancing the thread with the smallest simulated clock —
// the deterministic equivalent of concurrent execution against shared
// memory-system resources.
func (s *System) Run(runners []TxRunner, totalTxs int) {
	if len(runners) != s.cfg.Threads {
		panic(fmt.Sprintf("engine: %d runners for %d threads", len(runners), s.cfg.Threads))
	}
	envs := make([]*Env, len(runners))
	for i := range runners {
		envs[i] = s.NewEnv(i)
	}
	for done := 0; done < totalTxs; done++ {
		t := 0
		for i := 1; i < len(runners); i++ {
			if s.clocks[i].Now() < s.clocks[t].Now() {
				t = i
			}
		}
		runners[t].RunTx(envs[t])
	}
}

// SyncClocks advances every thread clock to the latest one. Call it after
// a sequential phase (workload setup runs thread-by-thread) so that the
// shared-resource reservation times left behind by later threads do not
// stall earlier threads' next accesses — all threads enter the measured
// phase at the same simulated instant.
func (s *System) SyncClocks() {
	m := s.MaxClock()
	for _, c := range s.clocks {
		c.AdvanceTo(m)
	}
}

// ResetMemoryQueues clears device queue backlog and posted-write tracking.
// Use together with DrainCache/SyncClocks at measurement boundaries: the
// boundary's accounting burst must not stall the next window.
func (s *System) ResetMemoryQueues() {
	s.dev.ResetQueues()
	s.ctrl.ResetPending()
}

// DrainCache writes back every dirty cached line through the persistence
// scheme (without invalidating), charging the traffic that still-cached
// data would eventually cost. The harness calls it to close measurement
// windows fairly across schemes.
func (s *System) DrainCache() {
	now := s.MaxClock()
	for _, line := range s.hier.DirtyEvictions() {
		s.hier.FlushLine(line, false)
		s.scheme.Evict(0, line, now)
	}
}

// Crash models a power failure: all volatile state — caches, controller
// buffers, mapping tables, the logical view — vanishes; only NVM contents
// survive. Open transactions are implicitly aborted.
func (s *System) Crash() {
	if s.tel.Enabled(telemetry.KindTxAbort) {
		for t, open := range s.txOpen {
			if open {
				s.tel.Emit(telemetry.Event{
					Kind: telemetry.KindTxAbort,
					Time: s.clocks[t].Now(),
					Core: int16(t),
					Tx:   uint64(s.txID[t]),
				})
			}
		}
	}
	s.scheme.Crash()
	s.hier.DropAll()
	// The logical view is volatile: it becomes meaningless at the instant
	// of the crash. The store object itself must survive (schemes hold
	// the pointer via persist.Context), so it is cleared in place.
	s.view.Reset()
	for i := range s.txOpen {
		s.txOpen[i] = false
		s.txWrites[i] = nil
	}
	for i := range s.undo {
		s.undo[i].reset()
	}
	s.crashed = true
}

// Recover runs the scheme's recovery with the given thread count and
// reconstitutes the logical view from the recovered durable state. It
// returns the modeled recovery time.
func (s *System) Recover(threads int) (sim.Duration, error) {
	if !s.crashed {
		return 0, fmt.Errorf("engine: Recover without Crash")
	}
	d, err := s.scheme.Recover(threads)
	if err != nil {
		return 0, err
	}
	// After recovery the home region holds exactly the committed data;
	// the logical view resumes from it (in place, preserving the pointer
	// the schemes captured).
	s.view.CopyFrom(s.store)
	s.crashed = false
	return d, nil
}

// Mismatch is one difference between recovered durable state and the
// committed-write oracle.
type Mismatch struct {
	Addr mem.PAddr
	Want byte
	Got  byte
}

// VerifyRecovered compares the durable home region against the committed
// oracle (requires TrackOracle). It returns the first few mismatches, or
// none when recovery reproduced every committed byte.
func (s *System) VerifyRecovered(maxReport int) []Mismatch {
	if s.oracle == nil {
		panic("engine: VerifyRecovered requires Config.TrackOracle")
	}
	var out []Mismatch
	buf := make([]byte, mem.PageSize)
	s.oracle.ForEachPageUntil(func(base mem.PAddr, want []byte) bool {
		if !s.layout.Home.Contains(base) {
			return true
		}
		s.store.Read(base, buf)
		for i := range want {
			if want[i] != buf[i] {
				out = append(out, Mismatch{Addr: base + mem.PAddr(i), Want: want[i], Got: buf[i]})
				if len(out) >= maxReport {
					return false
				}
			}
		}
		return true
	})
	return out
}
