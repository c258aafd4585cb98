package persist

import "hoop/internal/sim"

// The interfaces below are optional capabilities a Scheme may implement on
// top of the core interface. Callers (the experiment harness, the CLIs)
// reach a scheme's GC, consolidation and recovery-scan machinery only
// through these — never by asserting on a concrete scheme type — so a new
// scheme gains harness support by implementing the capability, not by
// being special-cased.

// Quiescer is implemented by schemes with deferred background machinery —
// HOOP's and LSM's garbage collectors, OSP's page consolidation, Opt-Redo's
// checkpointer. Quiesce drains all of it synchronously so that a
// measurement window closes with every scheme's deferred traffic accounted;
// schemes without such machinery simply don't implement it.
type Quiescer interface {
	Quiesce(now sim.Time)
}

// GCReporter exposes the garbage collector's coalescing accounting (the
// paper's Table IV metric).
type GCReporter interface {
	// GCModifiedBytes is the cumulative transaction-modified bytes the GC
	// scanned (the reduction ratio's denominator).
	GCModifiedBytes() int64
	// GCMigratedBytes is the cumulative bytes actually written back to the
	// home region after coalescing.
	GCMigratedBytes() int64
	// DataReduction is the fraction of modified bytes that coalescing
	// avoided re-writing home, in [0, 1).
	DataReduction() float64
}

// RecoveryScanner is implemented by out-of-place schemes whose durable log
// region can be synthetically filled and then scanned back — the machinery
// behind the paper's Figure 11 recovery experiment (harness.Figure11,
// hoopbench -sections fig11).
type RecoveryScanner interface {
	// SyntheticFill populates the scheme's durable out-of-place region
	// with numTxs committed but un-migrated transactions of wordsPerTx
	// word-updates each, drawn from addrSpace home bytes with the given
	// PRNG seed. It returns the bytes written and is durable: a subsequent
	// Crash + recovery replays it.
	SyntheticFill(numTxs, wordsPerTx int, addrSpace uint64, seed uint64) (int64, error)
	// RecoverWithReport runs recovery with the given thread count and
	// returns the detailed accounting of what the pass found and did.
	RecoverWithReport(threads int) (RecoveryReport, error)
}

// RecoveryReport describes what a recovery pass found and did.
type RecoveryReport struct {
	CommittedTxs   int   // commit records replayed (seq > watermark)
	SlicesScanned  int   // data memory slices walked
	WordsRecovered int   // distinct home words written back
	ScanBytes      int64 // total bytes read during the pass
	ApplyBytes     int64 // total bytes written during the pass
	Threads        int
	ModeledTime    sim.Duration
}
