// Cell-marked traces: the one format behind every `-trace` file that holds
// more than one run. Each cell's events are JSONL lines (AppendJSON)
// behind one {"cell":"<label>"} marker line; a marker has no "k" field, so
// it never decodes as an event.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// CellTrace gathers one JSONL event stream per labelled cell and writes
// them out as one cell-marked stream, in the order the cells were added.
// Each cell's sink belongs to the goroutine running that cell, so none
// needs a lock, and cells added in a deterministic order make the stream
// byte-identical however the cells were scheduled.
type CellTrace struct {
	// Mask, when non-zero, keeps only these kinds in every cell; the
	// cells drop any other event they are subscribed to.
	Mask  Mask
	cells []*traceCell
}

// traceCell is one cell's buffered JSONL stream and the Sink Add returns.
type traceCell struct {
	label    string
	optional bool
	mask     Mask
	buf      []byte
}

// Emit implements Sink.
func (c *traceCell) Emit(e Event) {
	if c.mask.Has(e.Kind) {
		c.buf = append(AppendJSON(c.buf, e), '\n')
	}
}

// Add starts a cell under label and returns the sink that records it.
// The cell is written even if it records no event.
func (t *CellTrace) Add(label string) Sink { return t.add(label, false) }

// AddOptional is Add for a cell that is written only if it records an
// event.
func (t *CellTrace) AddOptional(label string) Sink { return t.add(label, true) }

func (t *CellTrace) add(label string, optional bool) Sink {
	mask := t.Mask
	if mask == 0 {
		mask = MaskAll
	}
	c := &traceCell{label: label, optional: optional, mask: mask}
	t.cells = append(t.cells, c)
	return c
}

// Len reports how many cells have been added.
func (t *CellTrace) Len() int { return len(t.cells) }

// WriteTo implements io.WriterTo. Call it only after every cell's run has
// returned.
func (t *CellTrace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var marker []byte
	for _, c := range t.cells {
		if c.optional && len(c.buf) == 0 {
			continue
		}
		label, _ := json.Marshal(c.label) // a string always marshals
		marker = append(append(append(marker[:0], markerPrefix...), label...), "}\n"...)
		for _, b := range [][]byte{marker, c.buf} {
			m, err := w.Write(b)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// markerPrefix starts every marker line and no event line.
var markerPrefix = []byte(`{"cell":`)

// maxTraceLine caps one trace line, far above any line the writers emit:
// a longer line is an error, never a reason to grow the read buffer.
const maxTraceLine = 1 << 20

// Cell is one labelled section of a cell-marked trace.
type Cell struct {
	Label  string
	Events []Event
}

// ReadCells splits a cell-marked trace back into its cells and calls each
// on every cell in stream order, holding one cell in memory at a time.
// Events before the first marker (a single-run trace has none) form one
// cell with an empty label. Blank lines are skipped; any other line that
// is neither a marker nor an event is an error, as is a line over 1 MiB.
// An error from each stops the read and is returned as is.
func ReadCells(r io.Reader, each func(Cell) error) error {
	return readCells(r, maxTraceLine, each)
}

func readCells(r io.Reader, maxLine int, each func(Cell) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(maxLine, 64<<10)), maxLine)
	var cur *Cell
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, markerPrefix) {
			label, err := decodeMarker(line)
			if err != nil {
				return fmt.Errorf("telemetry: trace line %d: bad cell marker: %v", lineNo, err)
			}
			if cur != nil {
				if err := each(*cur); err != nil {
					return err
				}
			}
			cur = &Cell{Label: label}
			continue
		}
		e, err := DecodeJSON(line)
		if err != nil {
			return fmt.Errorf("telemetry: trace line %d: %v", lineNo, err)
		}
		if cur == nil {
			cur = &Cell{}
		}
		cur.Events = append(cur.Events, e)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: trace line %d: %w", lineNo+1, err)
	}
	if cur == nil {
		return nil
	}
	return each(*cur)
}

// decodeMarker parses a marker line strictly: one "cell" string field and
// nothing after the object.
func decodeMarker(line []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var m struct {
		Cell string `json:"cell"`
	}
	if err := dec.Decode(&m); err != nil {
		return "", err
	}
	if _, err := dec.Token(); err != io.EOF {
		return "", fmt.Errorf("trailing data after marker")
	}
	return m.Cell, nil
}
