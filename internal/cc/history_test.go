package cc_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/cc/cctest"
	"hoop/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite the history golden file from this run")

// TestHistoryGolden locks the interleaving itself: for both policies,
// several thread counts and two skews, the recorded history (commit
// order, the attempt each transaction committed on, every operation's
// address and value, and the abort count) must match the checked-in
// golden byte for byte. The figures only show aggregates; this shows the
// step scheduler picks the same thread at every step. Regenerate
// deliberately with:
//
//	go test ./internal/cc -run TestHistoryGolden -update
func TestHistoryGolden(t *testing.T) {
	var b strings.Builder
	for _, policy := range cc.Policies {
		for _, threads := range []int{2, 4, 8} {
			for _, theta := range []float64{0.5, 1.2} {
				h, _, err := cctest.Run(cctest.Config{
					Scheme: engine.SchemeHOOP, Policy: policy, Seed: 1,
					Threads: threads, Txs: 24, PoolWords: 32, OpsPerTx: 2, Theta: theta,
				})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s threads=%d theta=%.1f aborts=%d commits=%d\n",
					policy, threads, theta, h.Aborts, len(h.Commits))
				for _, c := range h.Commits {
					fmt.Fprintf(&b, "  t%d a%d", c.Thread, c.Attempt)
					for _, op := range c.Ops {
						kind := "r"
						if op.Kind == cc.OpWrite {
							kind = "w"
						}
						fmt.Fprintf(&b, " %s%#x=%d", kind, uint64(op.Addr), op.Val)
					}
					b.WriteString("\n")
				}
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "history.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("recorded histories diverged from golden %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
