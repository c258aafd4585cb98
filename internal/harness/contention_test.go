package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/cc"
	"hoop/internal/engine"
)

// contentionQuickOpts shrinks the sweep for tests: the full grid is
// 7 schemes × 2 policies × 9 sweep points; quick mode keeps the grid
// shape but cuts transactions per cell.
func contentionQuickOpts(workers int) Options {
	return Options{Quick: true, Seed: 1, Workers: workers}
}

// TestContentionFigureQuickGolden locks the quick-mode contention grids
// to a checked-in golden, the same regime as TestQuickGridsGolden.
// Regenerate deliberately with:
//
//	go test ./internal/harness -run TestContentionFigureQuickGolden -update
func TestContentionFigureQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep is seconds-long")
	}
	tput, aborts, err := ContentionFigure(contentionQuickOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tput.Render(&b)
	b.WriteString("\n")
	aborts.Render(&b)
	got := b.String()

	path := filepath.Join("testdata", "contention_grids.golden")
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
		t.Errorf("quick contention grids diverged from golden %s.\nIf a model change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestContentionFigureWorkerDeterminism asserts the contention figure and
// its trace are bit-identical serial vs parallel: each cell owns its
// system, PRNGs and trace sink, so only wall-clock may change with
// -workers. Every contention cell is traced under its own label.
func TestContentionFigureWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	render := func(workers int) (string, []byte) {
		var grids string
		trace := runTraced(t, contentionQuickOpts(workers), 0, func(o Options) error {
			tput, aborts, err := ContentionFigure(o)
			if err == nil {
				grids = tput.String() + "\n" + aborts.String()
			}
			return err
		})
		return grids, trace
	}
	serial, serialTrace := render(1)
	parallel, parallelTrace := render(4)
	if serial != parallel {
		t.Errorf("contention figure differs between workers=1 and workers=4:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("contention trace differs between workers=1 and workers=4: %d vs %d bytes", len(serialTrace), len(parallelTrace))
	}
	checkSectionLabels(t, serialTrace, "contention",
		len(engine.AllSchemes)*len(cc.Policies)*len(contentionThetas)*len(contentionThreads),
		"contention/"+engine.SchemeHOOP+"/2pl/z0.9/t4")
}

// TestContentionAbortsObserved guards against a vacuous sweep: at the
// hottest sweep point, at least one scheme must see aborts under each
// policy — otherwise the figure's abort-rate panel measures nothing.
func TestContentionAbortsObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulation cells")
	}
	var cells []Cell
	for _, pol := range cc.Policies {
		cells = append(cells, contentionPoint(engine.SchemeNative, pol, 1.2, 8, contentionQuickOpts(1)))
	}
	metrics, _, err := RunCells(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metrics {
		pol := cells[i].Policy
		if m.Aborts == 0 {
			t.Errorf("policy %s: no aborts at the hottest sweep point (theta=1.2, 8 threads)", pol)
		}
		if m.Txs == 0 {
			t.Errorf("policy %s: no committed transactions measured", pol)
		}
	}
}
