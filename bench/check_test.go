package main

import (
	"os"
	"strings"
	"testing"

	"hoop/internal/harness"
	"hoop/internal/sim"
)

// Each correctness check is tested against a bug it must catch, and
// against correct input it must pass.

func TestGoldenCheckCatchesAlteredRow(t *testing.T) {
	data, err := os.ReadFile("../internal/harness/testdata/contention_grids.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	ok := &checker{}
	checkGolden(ok, "golden", want, want)
	if ok.failed != 0 {
		t.Fatalf("identical output failed %d checks: %v", ok.failed, ok.failures)
	}

	row := "HOOP/occ       3231.1"
	if !strings.Contains(want, row) {
		t.Fatalf("golden has no row %q", row)
	}
	bad := &checker{}
	checkGolden(bad, "golden", strings.Replace(want, row, "HOOP/occ       3231.2", 1), want)
	if bad.errorRate() <= 0 {
		t.Error("an altered golden row passed the check")
	}
}

func TestGridCheckCatchesBadCells(t *testing.T) {
	grid := func(base float64, other float64) *harness.Grid {
		return &harness.Grid{Title: "t", Rows: []string{"w"}, Cols: []string{"Opt-Redo", "HOOP"}, Cells: [][]float64{{base, other}}}
	}
	ok := &checker{}
	checkGrid(ok, grid(1, 1.7), "Opt-Redo")
	if ok.failed != 0 {
		t.Fatalf("a correct grid failed: %v", ok.failures)
	}
	for name, g := range map[string]*harness.Grid{
		"base not 1": grid(1.01, 1.7),
		"zero cell":  grid(1, 0),
		"NaN cell":   grid(1, nan()),
	} {
		ck := &checker{}
		checkGrid(ck, g, "Opt-Redo")
		if ck.errorRate() <= 0 {
			t.Errorf("%s: grid passed the check", name)
		}
	}
}

func TestSoakCheckCatchesLostRequests(t *testing.T) {
	good := shardReport{offered: 10, executed: 10, p99: sim.Microsecond}
	ok := &checker{}
	checkSoak(ok, []shardReport{good, good})
	if ok.failed != 0 {
		t.Fatalf("a conserving soak failed: %v", ok.failures)
	}
	lost := good
	lost.executed = 9 // offered != executed + shed
	shed := good
	shed.executed, shed.shed = 9, 1 // conserved, but the block policy never sheds
	for name, r := range map[string]shardReport{"lost": lost, "shed": shed} {
		ck := &checker{}
		checkSoak(ck, []shardReport{good, r})
		if ck.errorRate() <= 0 {
			t.Errorf("%s: soak passed the check", name)
		}
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}
