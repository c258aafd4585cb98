package main

import (
	"fmt"
	"math"
	"strings"

	"hoop/internal/harness"
	"hoop/internal/sim"
)

// maxFailures bounds how many failure messages a checker keeps for the
// diagnostic printout; every failure is still counted.
const maxFailures = 10

// checker counts correctness checks. The run reports attempted and failed
// checks, and error_rate = failed / attempted.
type checker struct {
	attempted, failed int
	failures          []string
}

// check records one check; format and args describe a failure.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed checks over attempted checks.
func (c *checker) errorRate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// checkMatrix checks one matrix run: every cell committed exactly txs
// transactions, and every cell of every figure is finite and positive,
// with the normalization column reading exactly 1.
func checkMatrix(ck *checker, m *harness.Matrix, txs int, figures []figure) {
	for _, w := range m.Workloads {
		for _, s := range m.Schemes {
			got := m.Cells[w][s].Txs
			ck.check(got == int64(txs), "%s/%s committed %d transactions, want %d", w, s, got, txs)
		}
	}
	for _, f := range figures {
		checkGrid(ck, f.render(m), f.base)
	}
}

// checkGrid checks that every cell of g is finite and positive and, when
// base is non-empty, that column base reads exactly 1.
func checkGrid(ck *checker, g *harness.Grid, base string) {
	for i, row := range g.Cells {
		for j, v := range row {
			ck.check(finite(v) && v > 0, "%s: %s/%s = %v, want finite and > 0", g.Title, g.Rows[i], g.Cols[j], v)
			if g.Cols[j] == base {
				ck.check(v == 1, "%s: %s/%s = %v, want exactly 1 (normalization base)", g.Title, g.Rows[i], g.Cols[j], v)
			}
		}
	}
}

// checkContention checks the contention grids: every throughput is finite
// and positive, and every abort rate is a percentage below 100.
func checkContention(ck *checker, tput, aborts *harness.Grid) {
	checkGrid(ck, tput, "")
	for i, row := range aborts.Cells {
		for j, v := range row {
			ck.check(finite(v) && v >= 0 && v < 100, "%s: %s/%s = %v, want in [0, 100)", aborts.Title, aborts.Rows[i], aborts.Cols[j], v)
		}
	}
}

// checkGolden compares rendered output with a golden text line by line,
// one check per golden line.
func checkGolden(ck *checker, name, got, want string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	ck.check(len(gl) == len(wl), "%s: %d lines, golden has %d", name, len(gl), len(wl))
	for i, w := range wl {
		g := ""
		if i < len(gl) {
			g = gl[i]
		}
		ck.check(g == w, "%s line %d: got %q, golden %q", name, i+1, g, w)
	}
}

// shardReport is one shard's soak result.
type shardReport struct {
	offered        uint64
	executed, shed int64
	p50, p99, p999 sim.Duration
	maxDelay, span sim.Duration
}

// line renders the shard's report row (the per-shard line of hoopd's soak
// report, without wall-clock time).
func (r shardReport) line(j int) string {
	return fmt.Sprintf("shard %d: offered %d executed %d shed %d p50 %v p99 %v p999 %v maxqdelay %v span %v",
		j, r.offered, r.executed, r.shed, r.p50, r.p99, r.p999, r.maxDelay, r.span)
}

// checkSoak checks request conservation on every shard: each offered
// request either executed or was shed, nothing is shed under the block
// policy, and the shard served something.
func checkSoak(ck *checker, shards []shardReport) {
	for j, r := range shards {
		ck.check(r.offered == uint64(r.executed+r.shed), "shard %d: offered %d != executed %d + shed %d", j, r.offered, r.executed, r.shed)
		ck.check(r.shed == 0, "shard %d: shed %d requests under the block policy", j, r.shed)
		ck.check(r.executed > 0, "shard %d executed nothing", j)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
