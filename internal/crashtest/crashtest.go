// Package crashtest is the crash-point fault-injection harness: it runs a
// deterministic transactional workload against a persistence scheme with
// the NVM persist journal attached, then declares a crash at an arbitrary
// journal index k — "every 8-byte unit persisted before k survives,
// nothing after does" — rebuilds the device image from the journal prefix,
// recovers a fresh scheme instance over it, and checks the recovered home
// region against a prefix-consistency oracle.
//
// Two drivers sit on top: Enumerate tries every crash point of a small
// workload (exhaustive torn-write coverage), and RandomSchedules samples
// one crash point per seeded workload for statistical coverage of larger
// ones. Both report the exact seed and crash point of a violation so any
// red run reproduces locally (and via cmd/hoopcrash).
package crashtest

import (
	"fmt"

	"hoop/internal/baseline/lad"
	"hoop/internal/baseline/lsm"
	"hoop/internal/baseline/native"
	"hoop/internal/baseline/osp"
	"hoop/internal/baseline/redo"
	"hoop/internal/baseline/undo"
	"hoop/internal/hoop"
	"hoop/internal/mem"
	"hoop/internal/nvm"
	"hoop/internal/persist"
	"hoop/internal/persisttest"
	"hoop/internal/sim"
)

// Schemes lists every registered persistence scheme the harness drives —
// the seven schemes of the evaluation. The deliberately-buggy negative-
// control scheme (BuggySchemeName) is excluded.
func Schemes() []string {
	return []string{
		hoop.SchemeName,
		redo.SchemeName,
		undo.SchemeName,
		osp.SchemeName,
		lsm.SchemeName,
		lad.SchemeName,
		native.SchemeName,
	}
}

// Workload is a deterministic transactional workload: Txs sequential
// transactions of 1..MaxWords random word writes drawn from a small
// address pool (small pools force overwrites, which is what makes torn
// commits observable), with occasional cache evictions between
// transactions.
type Workload struct {
	Seed      uint64
	Txs       int
	MaxWords  int     // max word writes per transaction
	AddrWords int     // address pool: words 0..AddrWords-1 of the home region
	EvictProb float64 // chance of an eviction after each transaction
	Cores     int
	// AbortEvery, when positive, aborts every AbortEvery-th transaction
	// after its writes instead of committing it, exposing the abort path's
	// own crash windows (undo rolling images home, log neutralization, OOP
	// slice discard) to the journal. Aborted transactions must leave no
	// durable residue at any crash point.
	AbortEvery int
}

// DefaultWorkload is sized for exhaustive crash-point enumeration: small
// enough that every scheme's full journal enumerates in well under a
// second, large enough to cover multi-line transactions, overwrites,
// evictions, and (for HOOP/LSM) GC migrations.
func DefaultWorkload(seed uint64) Workload {
	return Workload{Seed: seed, Txs: 8, MaxWords: 4, AddrWords: 96, EvictProb: 0.3, Cores: 2}
}

// TxRecord is one executed transaction: its final word image and the
// journal window it occupied. BeginIdx is the journal length when the
// transaction began; DurableIdx is the length when TxEnd returned, i.e.
// the point from which the transaction must survive any crash. For an
// aborted transaction DurableIdx is the length when TxAbort returned, and
// the record's words must NOT survive any crash point.
type TxRecord struct {
	Words      map[mem.PAddr]uint64
	BeginIdx   int
	DurableIdx int
	Aborted    bool
}

// Run is an executed workload plus everything needed to crash it anywhere.
type Run struct {
	Scheme    string
	Workload  Workload
	Journal   *nvm.Journal
	Txs       []TxRecord
	Footprint []mem.PAddr // sorted distinct word addresses ever written
}

// geometryFor keeps recovery scans cheap: exhaustive enumeration performs
// one full recovery per crash point, and log-scan cost is proportional to
// the log region's record capacity. HOOP needs extra OOP room for 2 MB
// aligned data blocks.
func geometryFor(scheme string) persisttest.Geometry {
	g := persisttest.Geometry{HomeBytes: 64 << 20, OOPBytes: 1 << 20}
	if scheme == hoop.SchemeName {
		g.OOPBytes = 8 << 20
	}
	return g
}

// optFor tunes scheme construction for the harness: tiny commit rings and
// aggressive GC periods so garbage collection (and its crash windows:
// half-migrated words, watermark publication, block recycling) actually
// runs inside a microseconds-long workload.
func optFor(scheme string) any {
	switch scheme {
	case hoop.SchemeName:
		cfg := hoop.DefaultConfig()
		cfg.CommitLogBytes = 64 << 10
		cfg.GCPeriod = 2 * sim.Microsecond
		return cfg
	case lsm.SchemeName:
		cfg := lsm.DefaultConfig()
		cfg.GCPeriod = 2 * sim.Microsecond
		return cfg
	}
	return nil
}

// Execute runs the workload against a freshly built scheme with the
// persist journal attached (before construction, so durable-format
// initialization is journaled too) and records each transaction's journal
// window.
func Execute(scheme string, w Workload) (*Run, error) {
	if w.Cores < 1 {
		w.Cores = 1
	}
	ctx := persisttest.NewContextGeom(w.Cores, geometryFor(scheme))
	j := ctx.Dev.AttachJournal()
	s, err := persist.Build(ctx, scheme, optFor(scheme))
	if err != nil {
		return nil, err
	}
	run := &Run{Scheme: scheme, Workload: w, Journal: j}
	r := sim.NewRand(w.Seed)
	seen := make(map[mem.PAddr]struct{})
	for i := 0; i < w.Txs; i++ {
		words := make(map[mem.PAddr]uint64, w.MaxWords)
		for n := 1 + r.Intn(w.MaxWords); len(words) < n; {
			words[mem.PAddr(r.Intn(w.AddrWords))*mem.WordSize] = r.Uint64()
		}
		begin := j.Len()
		abort := w.AbortEvery > 0 && (i+1)%w.AbortEvery == 0
		if abort {
			persisttest.RunTxAbort(s, ctx, i%w.Cores, words)
		} else {
			persisttest.RunTx(s, ctx, i%w.Cores, words)
		}
		run.Txs = append(run.Txs, TxRecord{Words: words, BeginIdx: begin, DurableIdx: j.Len(), Aborted: abort})
		for a := range words {
			seen[a] = struct{}{}
		}
		s.Tick(sim.Time(i+1) * sim.Microsecond)
		if r.Bool(w.EvictProb) {
			a := mem.PAddr(r.Intn(w.AddrWords)) * mem.WordSize
			s.Evict(i%w.Cores, mem.LineAddr(a), 0)
		}
	}
	for a := range seen {
		run.Footprint = append(run.Footprint, a)
	}
	sortAddrs(run.Footprint)
	return run, nil
}

// RecoverAt reconstructs the durable image at crash point k, builds a
// fresh scheme instance over it (volatile state gone, exactly as after a
// power failure), runs its recovery, and returns the recovered store.
func (run *Run) RecoverAt(k int) (*mem.Store, error) {
	st := run.Journal.ReconstructAt(k)
	ctx := persisttest.NewContextOn(st, run.Workload.Cores, geometryFor(run.Scheme))
	s, err := persist.Build(ctx, run.Scheme, optFor(run.Scheme))
	if err != nil {
		return nil, fmt.Errorf("rebuild at k=%d: %w", k, err)
	}
	if _, err := s.Recover(2); err != nil {
		return nil, fmt.Errorf("recover at k=%d: %w", k, err)
	}
	return st, nil
}

// Violation reports a crash point whose recovered image failed the oracle.
type Violation struct {
	Scheme string
	Seed   uint64
	Point  int
	Err    error
}

func (v *Violation) Error() string {
	return fmt.Sprintf("scheme=%s seed=%d crash-point=%d: %v", v.Scheme, v.Seed, v.Point, v.Err)
}

// Enumerate executes the workload once and checks every crash point in
// ascending order, so a returned Violation carries the minimal failing
// point. It reports how many points were checked.
func Enumerate(scheme string, w Workload) (int, *Violation) {
	run, err := Execute(scheme, w)
	if err != nil {
		return 0, &Violation{Scheme: scheme, Seed: w.Seed, Point: -1, Err: err}
	}
	points := run.Journal.CrashPoints()
	for _, k := range points {
		st, err := run.RecoverAt(k)
		if err == nil {
			err = run.Check(k, st)
		}
		if err != nil {
			return len(points), &Violation{Scheme: scheme, Seed: w.Seed, Point: k, Err: err}
		}
	}
	return len(points), nil
}

// RandomSchedules runs n independent schedules: seed seedBase+i drives
// both the workload and the choice of one random crash point. Seeds are
// tried in ascending order, so a returned Violation carries the minimal
// failing seed.
func RandomSchedules(scheme string, base Workload, seedBase uint64, n int) *Violation {
	for i := 0; i < n; i++ {
		w := base
		w.Seed = seedBase + uint64(i)
		run, err := Execute(scheme, w)
		if err != nil {
			return &Violation{Scheme: scheme, Seed: w.Seed, Point: -1, Err: err}
		}
		r := sim.NewRand(w.Seed ^ 0x9E3779B97F4A7C15)
		k := run.Journal.AlignPoint(r.Intn(run.Journal.Len() + 1))
		st, err := run.RecoverAt(k)
		if err == nil {
			err = run.Check(k, st)
		}
		if err != nil {
			return &Violation{Scheme: scheme, Seed: w.Seed, Point: k, Err: err}
		}
	}
	return nil
}

func sortAddrs(a []mem.PAddr) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
