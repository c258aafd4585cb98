package harness

import "fmt"

// attachTrace gives every cell in the batch its own cell in o.Trace (no-op
// when tracing is off). It must run in the serial cell-construction phase,
// before the cells reach the pool, so the trace lists cells in
// construction order. The
// label embeds the section so hooptop can group timelines.
func (o Options) attachTrace(section string, cells []Cell) {
	if o.Trace == nil {
		return
	}
	for i, c := range cells {
		cells[i].Sink = o.Trace.Add(fmt.Sprintf("%s/%s/%s", section, c.Workload.Name, c.Scheme))
	}
}
