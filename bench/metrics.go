package main

import (
	"slices"
	"time"

	"hoop/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with the same units.
type metricDef struct{ name, unit, better string }

// endToEndMetrics are reported by an untraced run.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by a traced run: each layer's self time,
// then runtime activity, the benchmark's own boundary timers and the
// harness's pool account, host time per modelled event, and the modelled
// counts themselves, which a change that only speeds up the simulator
// must leave exactly as they are.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_s", "s", "lower"})
	}
	for _, r := range runtimeCum {
		out = append(out, metricDef{r.metric, "s", "lower"})
	}
	return append(out,
		metricDef{"trace_overhead", "ratio", "lower"},
		metricDef{"harness.cell_sum_s", "s", "lower"},
		metricDef{"harness.max_cell_s", "s", "lower"},
		metricDef{"harness.pool_speedup", "x", "higher"},
		metricDef{"harness.captures_run", "count", "lower"},
		metricDef{"service.open_s", "s", "lower"},
		metricDef{"service.submit_ns", "ns", "lower"},
		metricDef{"loadgen.next_ns", "ns", "lower"},
		metricDef{"service.quiesce_s", "s", "lower"},
		metricDef{"cache.host_ns_per_access", "ns", "lower"},
		metricDef{"nvm.host_ns_per_access", "ns", "lower"},
		metricDef{"engine.host_ns_per_memop", "ns", "lower"},
		metricDef{"harness.host_us_per_tx", "us", "lower"},
		metricDef{"service.host_ns_per_request", "ns", "lower"},
		metricDef{"cache.llc_miss_ratio", "ratio", "lower"},
		metricDef{"nvm.bytes_written_per_tx", "B/tx", "lower"},
		metricDef{"nvm.bytes_read_per_tx", "B/tx", "lower"},
		metricDef{"hoop.maptable_hit_ratio", "ratio", "higher"},
		metricDef{"hoop.slice_flushes_per_tx", "count/tx", "lower"},
		metricDef{"gc.bytes_migrated_per_tx", "B/tx", "lower"},
		metricDef{"cc.abort_pct_mean", "%", "lower"},
		metricDef{"service.sojourn_p99_us", "us", "lower"},
		metricDef{"service.executed", "count", "higher"},
		metricDef{"service.shed", "count", "lower"},
	)
}()

// endToEnd computes the untraced run's metrics. Times are medians over the
// timed units; the peak resident set is the highest unit's, since a GC
// cycle that lands just before or after a unit's allocation peak moves
// that unit's peak by a third.
func endToEnd(res *runResult) map[string]float64 {
	walls, cpus := make([]time.Duration, len(res.untraced)), make([]time.Duration, len(res.untraced))
	peaks := make([]float64, len(res.untraced))
	for i, s := range res.untraced {
		walls[i], cpus[i], peaks[i] = s.wall, s.cpu, s.peakMB
	}
	return map[string]float64{
		"wall_s":      medianSeconds(walls),
		"cpu_s":       medianSeconds(cpus),
		"setup_s":     medianSeconds(res.setup),
		"peak_rss_mb": slices.Max(peaks),
	}
}

// perLayer computes the traced run's metrics from its folded profile.
// Metrics of a layer the workload does not reach read 0.
func perLayer(res *runResult, p *profile) map[string]float64 {
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".self_s"] = p.self[l]
	}
	for _, r := range runtimeCum {
		for _, f := range r.funcs {
			m[r.metric] += p.cum[f]
		}
		m[r.metric] = roundMicro(m[r.metric])
	}
	wall := func(ss []sample) float64 {
		ds := make([]time.Duration, len(ss))
		for i, s := range ss {
			ds[i] = s.wall
		}
		return medianSeconds(ds)
	}
	m["trace_overhead"] = ratio(wall(res.traced), wall(res.untraced)) - 1

	// The traced units' summed modelled work: profile time covers exactly
	// these units (plus a fresh workload's set-ups).
	var sum counts
	var cellSum, maxCell, speedup, captures []float64
	for _, out := range res.tracedOut {
		c := out.counts
		sum.txs += c.txs
		sum.loads += c.loads
		sum.stores += c.stores
		sum.cacheAccesses += c.cacheAccesses
		sum.nvmAccesses += c.nvmAccesses
		sum.requests += c.requests
		if ps := out.pool; ps != nil {
			cellSum = append(cellSum, ps.cellSum.Seconds())
			maxCell = append(maxCell, ps.maxCell.Seconds())
			speedup = append(speedup, ps.speedup)
			captures = append(captures, float64(ps.capturesRun))
		}
	}
	m["harness.cell_sum_s"] = median(cellSum)
	m["harness.max_cell_s"] = median(maxCell)
	m["harness.pool_speedup"] = median(speedup)
	m["harness.captures_run"] = median(captures)

	tr := &res.tr
	m["service.open_s"] = medianSeconds(tr.opens)
	m["service.submit_ns"] = ratio(float64(tr.submit.Nanoseconds()), float64(tr.submits))
	m["loadgen.next_ns"] = ratio(float64(tr.next.Nanoseconds()), float64(tr.nexts))
	m["service.quiesce_s"] = medianSeconds(tr.quiesces)

	m["cache.host_ns_per_access"] = ratio(p.self["cache"]*1e9, float64(sum.cacheAccesses))
	m["nvm.host_ns_per_access"] = ratio(p.self["nvm"]*1e9, float64(sum.nvmAccesses))
	m["engine.host_ns_per_memop"] = ratio(p.self["engine"]*1e9, float64(sum.loads+sum.stores))
	m["harness.host_us_per_tx"] = ratio(p.total*1e6, float64(sum.txs))
	m["service.host_ns_per_request"] = ratio(p.total*1e9, float64(sum.requests))

	// Modelled counts of one unit: every unit reproduces the reference.
	c := res.ref.counts
	m["cache.llc_miss_ratio"] = ratio(float64(c.llcMisses), float64(c.cacheAccesses))
	m["nvm.bytes_written_per_tx"] = ratio(float64(c.nvmWritten), float64(c.txs))
	m["nvm.bytes_read_per_tx"] = ratio(float64(c.nvmRead), float64(c.txs))
	m["hoop.maptable_hit_ratio"] = ratio(float64(c.mapHits), float64(c.mapHits+c.mapMisses))
	m["hoop.slice_flushes_per_tx"] = ratio(float64(c.sliceFlushes), float64(c.txs))
	m["gc.bytes_migrated_per_tx"] = ratio(float64(c.gcMigrated), float64(c.txs))
	m["cc.abort_pct_mean"] = c.abortPct
	m["service.sojourn_p99_us"] = float64(c.sojournP99) / float64(sim.Microsecond)
	m["service.executed"] = float64(c.requests)
	m["service.shed"] = float64(c.shed)
	return m
}

// ratio is a / b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
