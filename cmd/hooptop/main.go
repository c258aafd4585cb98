// Command hooptop summarizes a JSONL telemetry trace written by
// `hoopsim -trace`, `hoopbench -trace`, `hoopd -trace`, or any
// telemetry.JSONLSink: per cell it prints the event mix (count and bytes
// per kind), the simulated span, and an ASCII commit-density timeline. It
// also serves as the trace validator — telemetry.ReadCells fails the run
// on any line that neither decodes as an event nor as a cell marker —
// which is how CI checks that a trace parses.
//
// With -soak it instead renders a soak-run summary of a hoopd trace: per
// shard, the admitted/shed request counts, saturation rate, and service
// latency and queueing-delay percentiles, plus the fleet-wide roll-up
// from merged histograms.
//
// Usage:
//
//	hooptop trace.jsonl
//	hooptop -soak soak.jsonl
//	hoopbench -quick -trace /dev/stdout -sections fig10 | hooptop /dev/stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hooptop: %v\n", err)
		os.Exit(1)
	}
}

// kindAgg accumulates one event kind within one cell.
type kindAgg struct {
	n     int64
	bytes int64
}

// cell is the aggregation of one telemetry.Cell. Traces from single-run
// tools (hoopsim) have no marker lines and collapse into one unlabeled
// cell.
type cell struct {
	label      string
	events     int64
	byKind     [telemetry.NumKinds + 1]kindAgg // indexed by Kind, 1..NumKinds
	tMin, tMax sim.Time
	hasTime    bool
	commits    []sim.Time
	// Soak-summary inputs: commit latencies (tx_commit aux, paired with
	// commits), queueing delays (shard_enqueue/shard_shed aux), and the
	// earliest request arrival, which separates load from preload.
	commitLat    []sim.Duration
	qdelay       sim.Histogram
	qdelayMax    sim.Duration
	firstArrival sim.Time
	hasArrival   bool
}

func (c *cell) add(e telemetry.Event) {
	c.events++
	c.byKind[e.Kind].n++
	c.byKind[e.Kind].bytes += e.Bytes
	if e.Time != 0 {
		if !c.hasTime || e.Time < c.tMin {
			c.tMin = e.Time
		}
		if !c.hasTime || e.Time > c.tMax {
			c.tMax = e.Time
		}
		c.hasTime = true
	}
	switch e.Kind {
	case telemetry.KindTxCommit:
		c.commits = append(c.commits, e.Time)
		c.commitLat = append(c.commitLat, sim.Duration(e.Aux))
	case telemetry.KindShardEnqueue, telemetry.KindShardShed:
		c.qdelay.Observe(sim.Duration(e.Aux))
		if sim.Duration(e.Aux) > c.qdelayMax {
			c.qdelayMax = sim.Duration(e.Aux)
		}
		if !c.hasArrival || e.Time < c.firstArrival {
			c.firstArrival = e.Time
			c.hasArrival = true
		}
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hooptop", flag.ContinueOnError)
	soak := fs.Bool("soak", false, "render a hoopd soak-run summary instead of the per-cell event mix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hooptop [-soak] trace.jsonl")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var cells []*cell
	var total int64
	if err := telemetry.ReadCells(f, func(tc telemetry.Cell) error {
		c := &cell{label: tc.Label}
		for _, e := range tc.Events {
			c.add(e)
		}
		cells = append(cells, c)
		total += c.events
		return nil
	}); err != nil {
		return err
	}
	if *soak {
		return renderSoak(out, path, cells)
	}
	fmt.Fprintf(out, "%s: %d events in %d cells\n", path, total, len(cells))
	for _, c := range cells {
		render(out, c)
	}
	return nil
}

func render(out io.Writer, c *cell) {
	label := c.label
	if label == "" {
		label = "(trace)"
	}
	span := sim.Duration(0)
	if c.hasTime {
		span = sim.Duration(c.tMax - c.tMin)
	}
	fmt.Fprintf(out, "\n%s: %d events over %v\n", label, c.events, span)
	for k := telemetry.Kind(1); int(k) <= telemetry.NumKinds; k++ {
		agg := c.byKind[k]
		if agg.n == 0 {
			continue
		}
		if agg.bytes != 0 {
			fmt.Fprintf(out, "  %-14s %10d %14d B\n", k, agg.n, agg.bytes)
		} else {
			fmt.Fprintf(out, "  %-14s %10d\n", k, agg.n)
		}
	}
	if tl := timeline(c, 60); tl != "" {
		fmt.Fprintf(out, "  commits/time  [%s]\n", tl)
	}
}

// soakShard is one shard cell reduced to soak metrics.
type soakShard struct {
	label    string
	admitted int64
	shed     int64
	span     sim.Duration // first request arrival → last event
	svc      sim.Histogram
	qdelay   sim.Histogram
	qmax     sim.Duration
}

// reduceSoak turns a shard cell into soak metrics: requests are the
// shard_enqueue/shard_shed events, and service-latency percentiles come
// from the commits at or after the first request arrival — preload
// commits are excluded.
func reduceSoak(c *cell) soakShard {
	s := soakShard{
		label:    c.label,
		admitted: c.byKind[telemetry.KindShardEnqueue].n,
		shed:     c.byKind[telemetry.KindShardShed].n,
		qdelay:   c.qdelay,
		qmax:     c.qdelayMax,
	}
	if c.hasArrival {
		s.span = c.tMax - c.firstArrival
		for i, t := range c.commits {
			if t >= c.firstArrival {
				s.svc.Observe(c.commitLat[i])
			}
		}
	}
	return s
}

// renderSoak prints the per-shard saturation/shed/latency table and the
// fleet-wide roll-up from merged histograms (hoopd soak traces).
func renderSoak(out io.Writer, path string, cells []*cell) error {
	var shards []soakShard
	var routed int64
	for _, c := range cells {
		if strings.HasPrefix(c.label, "shard-") {
			shards = append(shards, reduceSoak(c))
		} else {
			routed += c.byKind[telemetry.KindRingRoute].n
		}
	}
	if len(shards) == 0 {
		return fmt.Errorf("%s: no shard-* cells — not a hoopd soak trace", path)
	}
	fmt.Fprintf(out, "%s: soak summary, %d shards", path, len(shards))
	if routed > 0 {
		fmt.Fprintf(out, ", %d ring-routed requests", routed)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "\n%-10s %9s %7s %6s %10s %10s %10s %10s %10s %10s\n",
		"shard", "admitted", "shed", "shed%", "rate/s", "svc-p50", "svc-p99", "svc-p999", "qdly-p99", "qdly-max")
	var fleet soakShard
	var fleetSpan sim.Duration
	for _, s := range shards {
		rate := 0.0
		if s.span > 0 {
			rate = float64(s.admitted) / s.span.Seconds()
		}
		offered := s.admitted + s.shed
		shedPct := 0.0
		if offered > 0 {
			shedPct = 100 * float64(s.shed) / float64(offered)
		}
		fmt.Fprintf(out, "%-10s %9d %7d %5.1f%% %10.0f %10v %10v %10v %10v %10v\n",
			s.label, s.admitted, s.shed, shedPct, rate,
			s.svc.Quantile(0.50), s.svc.Quantile(0.99), s.svc.Quantile(0.999),
			s.qdelay.Quantile(0.99), s.qmax)
		fleet.admitted += s.admitted
		fleet.shed += s.shed
		fleet.svc.Merge(&s.svc)
		fleet.qdelay.Merge(&s.qdelay)
		if s.qmax > fleet.qmax {
			fleet.qmax = s.qmax
		}
		if s.span > fleetSpan {
			fleetSpan = s.span
		}
	}
	goodput := 0.0
	if fleetSpan > 0 {
		goodput = float64(fleet.admitted) / fleetSpan.Seconds()
	}
	offered := fleet.admitted + fleet.shed
	shedPct := 0.0
	if offered > 0 {
		shedPct = 100 * float64(fleet.shed) / float64(offered)
	}
	fmt.Fprintf(out, "\nfleet: %d admitted, %d shed (%.1f%%), goodput %.0f/s over %v\n",
		offered-fleet.shed, fleet.shed, shedPct, goodput, fleetSpan)
	fmt.Fprintf(out, "fleet: svc p50=%v p99=%v p999=%v; qdelay p99=%v max=%v\n",
		fleet.svc.Quantile(0.50), fleet.svc.Quantile(0.99), fleet.svc.Quantile(0.999),
		fleet.qdelay.Quantile(0.99), fleet.qmax)
	return nil
}

// timeline buckets the cell's commit timestamps over its span and renders
// commit density as one ASCII level character per bucket.
func timeline(c *cell, width int) string {
	if len(c.commits) == 0 || !c.hasTime || c.tMax == c.tMin {
		return ""
	}
	const levels = " .:-=+*#%@"
	buckets := make([]int, width)
	span := float64(c.tMax - c.tMin)
	for _, t := range c.commits {
		i := int(float64(t-c.tMin) / span * float64(width))
		if i >= width {
			i = width - 1
		}
		buckets[i]++
	}
	max := 0
	for _, n := range buckets {
		if n > max {
			max = n
		}
	}
	b := make([]byte, width)
	for i, n := range buckets {
		lvl := 0
		if n > 0 {
			lvl = 1 + n*(len(levels)-2)/max
			if lvl > len(levels)-1 {
				lvl = len(levels) - 1
			}
		}
		b[i] = levels[lvl]
	}
	return string(b)
}
