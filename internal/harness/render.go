package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// JSON renders the grid as a machine-readable object so downstream
// plotting scripts can regenerate the paper's figures graphically.
func (g *Grid) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Title   string      `json:"title"`
		RowName string      `json:"row_name"`
		Rows    []string    `json:"rows"`
		Cols    []string    `json:"cols"`
		Cells   [][]float64 `json:"cells"`
	}{g.Title, g.RowName, g.Rows, g.Cols, g.Cells}, "", "  ")
}

// RenderBars draws the grid as grouped horizontal ASCII bars (one group
// per row), scaled to the grid's maximum — a terminal-friendly stand-in
// for the paper's bar figures.
func (g *Grid) RenderBars(w io.Writer) {
	const width = 46
	max := 0.0
	for _, row := range g.Cells {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		fmt.Fprintln(w, "(no positive values to chart)")
		return
	}
	labelW := 0
	for _, c := range g.Cols {
		if len(c) > labelW {
			labelW = len(c)
		}
	}
	fmt.Fprintf(w, "%s\n", g.Title)
	for i, r := range g.Rows {
		fmt.Fprintf(w, "%s\n", r)
		for j, c := range g.Cols {
			v := g.Cells[i][j]
			n := int(v / max * width)
			if n < 0 {
				n = 0
			}
			bar := strings.Repeat("#", n)
			fmt.Fprintf(w, "  %-*s |%-*s %.2f\n", labelW, c, width, bar, v)
		}
	}
}
