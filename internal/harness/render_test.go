package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoop/internal/workload"
)

func sampleGrid() *Grid {
	return &Grid{
		Title:   "sample",
		RowName: "workload",
		Rows:    []string{"a", "b"},
		Cols:    []string{"x", "y", "z"},
		Cells:   [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
}

func TestGridJSONRoundtrip(t *testing.T) {
	g := sampleGrid()
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := GridFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != g.Title || got.Cell("b", "y") != 5 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestGridFromJSONValidates(t *testing.T) {
	if _, err := GridFromJSON([]byte("{")); err == nil {
		t.Fatal("malformed JSON must fail")
	}
	if _, err := GridFromJSON([]byte(`{"rows":["a"],"cols":["x"],"cells":[]}`)); err == nil {
		t.Fatal("row/cell mismatch must fail")
	}
	if _, err := GridFromJSON([]byte(`{"rows":["a"],"cols":["x","y"],"cells":[[1]]}`)); err == nil {
		t.Fatal("col/cell mismatch must fail")
	}
}

func TestSaveGridJSON(t *testing.T) {
	dir := t.TempDir()
	if err := SaveGridJSON(filepath.Join(dir, "sub"), "fig", sampleGrid()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sub", "fig.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GridFromJSON(data); err != nil {
		t.Fatal(err)
	}
}

func TestRenderBars(t *testing.T) {
	var b strings.Builder
	g := sampleGrid()
	g.RenderBars(&b)
	out := b.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "sample") {
		t.Fatalf("bars missing: %q", out)
	}
	// The maximum value gets the longest bar.
	lines := strings.Split(out, "\n")
	maxHashes, maxLine := 0, ""
	for _, l := range lines {
		n := strings.Count(l, "#")
		if n > maxHashes {
			maxHashes, maxLine = n, l
		}
	}
	if !strings.Contains(maxLine, "6.00") {
		t.Fatalf("longest bar is not the max value: %q", maxLine)
	}
	// Empty grid does not panic.
	empty := &Grid{Title: "e", Rows: []string{"r"}, Cols: []string{"c"}, Cells: [][]float64{{0}}}
	empty.RenderBars(&b)
}

func TestGridRenderAligned(t *testing.T) {
	var b strings.Builder
	sampleGrid().Render(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines: %q", len(lines), b.String())
	}
}

func TestColMeanAndCellPanics(t *testing.T) {
	g := sampleGrid()
	if got := g.ColMean("y"); got != 3.5 {
		t.Fatalf("ColMean = %f", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown cell must panic")
		}
	}()
	g.Cell("nope", "x")
}

func TestWearUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long")
	}
	rep, err := Wear(Options{Quick: true, Seed: 1, WL: workload.Options{Keys: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	RenderWear(&b, rep)
	t.Log("\n" + b.String())
	if rep.BucketsTouched < 8 {
		t.Fatalf("wear touched only %d buckets; round-robin should spread", rep.BucketsTouched)
	}
	if rep.CV > 1.5 {
		t.Fatalf("wear too skewed: CV=%.2f", rep.CV)
	}
}

func TestRunSectionsQuickSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long")
	}
	dir := t.TempDir()
	var b strings.Builder
	_, err := RunSections(&b, Options{Quick: true, Seed: 1, Charts: true, ArtifactDir: dir,
		WL: workload.Options{Keys: 4096}},
		[]string{"tables", "area", "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{"Table I", "Table II", "Table III", "overhead", "recovery"} {
		if !strings.Contains(out, needle) {
			t.Errorf("report missing %q", needle)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "figure11.json")); err != nil {
		t.Errorf("figure11 artifact missing: %v", err)
	}
}

// Cell returns the value at (row, col) by name.
func (g *Grid) Cell(row, col string) float64 {
	ri, ci := -1, -1
	for i, r := range g.Rows {
		if r == row {
			ri = i
		}
	}
	for j, c := range g.Cols {
		if c == col {
			ci = j
		}
	}
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("harness: no cell (%q, %q) in %q", row, col, g.Title))
	}
	return g.Cells[ri][ci]
}

// ColMean returns the arithmetic mean of a column.
func (g *Grid) ColMean(col string) float64 {
	ci := -1
	for j, c := range g.Cols {
		if c == col {
			ci = j
		}
	}
	if ci < 0 {
		panic("harness: unknown column " + col)
	}
	sum := 0.0
	for i := range g.Rows {
		sum += g.Cells[i][ci]
	}
	return sum / float64(len(g.Rows))
}

// GridFromJSON parses a grid previously produced by JSON.
func GridFromJSON(data []byte) (*Grid, error) {
	var v struct {
		Title   string      `json:"title"`
		RowName string      `json:"row_name"`
		Rows    []string    `json:"rows"`
		Cols    []string    `json:"cols"`
		Cells   [][]float64 `json:"cells"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("harness: bad grid JSON: %w", err)
	}
	if len(v.Cells) != len(v.Rows) {
		return nil, fmt.Errorf("harness: grid JSON has %d rows but %d cell rows", len(v.Rows), len(v.Cells))
	}
	for i, row := range v.Cells {
		if len(row) != len(v.Cols) {
			return nil, fmt.Errorf("harness: grid JSON row %d has %d cells, want %d", i, len(row), len(v.Cols))
		}
	}
	return &Grid{Title: v.Title, RowName: v.RowName, Rows: v.Rows, Cols: v.Cols, Cells: v.Cells}, nil
}
