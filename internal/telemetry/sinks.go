package telemetry

// KindCount is one row of a CountingSink summary.
type KindCount struct {
	Kind  Kind  `json:"kind"`
	N     int64 `json:"n"`
	Bytes int64 `json:"bytes"`
}

// CountingSink tallies events per kind — number seen and bytes accounted.
// The harness attaches one per cell to print phase breakdowns alongside
// the figure grids without buffering the stream.
type CountingSink struct {
	n     [NumKinds + 1]int64
	bytes [NumKinds + 1]int64
}

// Emit implements Sink.
func (c *CountingSink) Emit(e Event) {
	if int(e.Kind) > NumKinds {
		return
	}
	c.n[e.Kind]++
	c.bytes[e.Kind] += e.Bytes
}

// Counts returns the non-zero tallies in Kind order.
func (c *CountingSink) Counts() []KindCount {
	var out []KindCount
	for k := 1; k <= NumKinds; k++ {
		if c.n[k] != 0 || c.bytes[k] != 0 {
			out = append(out, KindCount{Kind: Kind(k), N: c.n[k], Bytes: c.bytes[k]})
		}
	}
	return out
}
