package crashtest

import (
	"strings"
	"testing"
)

// defaultPoints and abortPoints pin each scheme's exact crash-point count
// under DefaultWorkload(1) and AbortWorkload(1) (what `hoopcrash -mode
// exhaustive` and its `-txs 9 -abortevery 3` form print). A scheme that
// stops journaling some durable write, or starts journaling more, changes
// its count; a change to a scheme's persist path must update these on
// purpose.
var (
	defaultPoints = map[string]int{
		"HOOP": 228, "Opt-Redo": 476, "Opt-Undo": 500, "OSP": 201,
		"LSM": 192, "LAD": 9, "Ideal": 25,
	}
	abortPoints = map[string]int{
		"HOOP": 184, "Opt-Redo": 362, "Opt-Undo": 538, "OSP": 159,
		"LSM": 185, "LAD": 7, "Ideal": 25,
	}
)

// TestEnumerateAllSchemes is the exhaustive tentpole check: every scheme
// must pass the prefix-consistency oracle at every single crash point of
// the default workload — every torn slice, torn commit record, half-flipped
// bitmap, and half-applied GC migration the journal can express — and
// enumerate exactly its pinned number of crash points.
func TestEnumerateAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			w := DefaultWorkload(1)
			points, v := Enumerate(scheme, w)
			if v != nil {
				t.Fatalf("%v\nrepro: go run ./cmd/hoopcrash -scheme %s -mode exhaustive -seed %d", v, scheme, w.Seed)
			}
			if want, ok := defaultPoints[scheme]; !ok || points != want {
				t.Fatalf("%d crash points enumerated, want %d (pinned: %v)", points, want, ok)
			}
			t.Logf("%d crash points, all consistent", points)
		})
	}
}

// TestRandomSchedulesAllSchemes samples many independent seeded workloads
// with one random crash point each — statistical coverage of workload
// shapes exhaustive enumeration of a single seed cannot reach.
func TestRandomSchedulesAllSchemes(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			if v := RandomSchedules(scheme, DefaultWorkload(0), 100, n); v != nil {
				t.Fatalf("%v\nrepro: go run ./cmd/hoopcrash -scheme %s -mode random -seed %d -seeds 1", v, scheme, v.Seed)
			}
		})
	}
}

// TestBuggySchemeRejected proves the harness has teeth: the deliberately
// commit-marker-before-data scheme must be caught by exhaustive
// enumeration. If this test ever finds no violation, the journal or the
// oracle has gone blind.
func TestBuggySchemeRejected(t *testing.T) {
	points, v := Enumerate(BuggySchemeName, DefaultWorkload(1))
	if v == nil {
		t.Fatalf("oracle accepted the buggy commit-before-data scheme at all %d crash points", points)
	}
	if v.Point < 0 {
		t.Fatalf("buggy scheme failed to execute rather than failing the oracle: %v", v)
	}
	if !strings.Contains(v.Err.Error(), "no consistent cut") {
		t.Fatalf("expected a consistency violation, got: %v", v)
	}
	t.Logf("rejected as expected: %v", v)
}

// TestEnumerateAbortsAllSchemes extends exhaustive coverage to crash
// points inside aborts: every third transaction aborts after its writes,
// so the journal records each scheme's abort-path windows (undo images
// rolling home, log neutralization, OOP slice discard) and every crash
// point in them must recover to an image without the aborted writes. Each
// scheme must enumerate exactly its pinned number of crash points.
func TestEnumerateAbortsAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			w := AbortWorkload(1)
			points, v := Enumerate(scheme, w)
			if v != nil {
				t.Fatalf("%v\nrepro: go run ./cmd/hoopcrash -scheme %s -mode exhaustive -seed %d -txs %d -abortevery %d", v, scheme, w.Seed, w.Txs, w.AbortEvery)
			}
			if want, ok := abortPoints[scheme]; !ok || points != want {
				t.Fatalf("%d crash points enumerated, want %d (pinned: %v)", points, want, ok)
			}
			t.Logf("%d crash points with injected aborts, all consistent", points)
		})
	}
}

// TestRandomSchedulesWithAborts samples seeded abort-injecting workloads
// with one random crash point each, for abort-path shapes a single seed's
// enumeration cannot reach.
func TestRandomSchedulesWithAborts(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			if v := RandomSchedules(scheme, AbortWorkload(0), 300, n); v != nil {
				t.Fatalf("%v\nrepro: go run ./cmd/hoopcrash -scheme %s -mode random -seed %d -seeds 1 -txs 9 -abortevery 3", v, scheme, v.Seed)
			}
		})
	}
}

// TestAbortLeakSchemeRejected proves the abort oracle has teeth: the
// scheme whose TxAbort durably leaks its first write must be caught. The
// commit path of this scheme is correct, so it passes the abort-free
// workload — only abort injection exposes it.
func TestAbortLeakSchemeRejected(t *testing.T) {
	if points, v := Enumerate(BuggyAbortLeakName, DefaultWorkload(1)); v != nil {
		t.Fatalf("abort-leak scheme must pass the abort-free workload (its commit path is correct), failed at %d of %d points: %v", v.Point, points, v)
	}
	points, v := Enumerate(BuggyAbortLeakName, AbortWorkload(1))
	if v == nil {
		t.Fatalf("oracle accepted the abort-leaking scheme at all %d crash points", points)
	}
	if v.Point < 0 {
		t.Fatalf("abort-leak scheme failed to execute rather than failing the oracle: %v", v)
	}
	t.Logf("rejected as expected: %v", v)
}

// TestEnumerateSecondSeed runs a second seed through two representative
// schemes so exhaustive coverage is not hostage to one workload shape.
func TestEnumerateSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("second exhaustive seed skipped in short mode")
	}
	for _, scheme := range []string{Schemes()[0], Schemes()[1]} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			if _, v := Enumerate(scheme, DefaultWorkload(7)); v != nil {
				t.Fatal(v)
			}
		})
	}
}

// AbortWorkload is DefaultWorkload with every third transaction aborting
// after its writes, so exhaustive enumeration also lands crash points
// inside each scheme's abort path (undo images rolling home, log
// neutralization, OOP slice discard).
func AbortWorkload(seed uint64) Workload {
	w := DefaultWorkload(seed)
	w.Txs = 9
	w.AbortEvery = 3
	return w
}
