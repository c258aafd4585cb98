package harness

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hoop/internal/engine"
	"hoop/internal/workload"
)

// poolWorkloads are three small columns of different weights, so replays
// from different captures interleave on the pool.
func poolWorkloads() []workload.Workload {
	wl := workload.Options{Keys: 256}
	return []workload.Workload{workload.MustBuild("vector", wl), workload.MustBuild("btree", wl), workload.MustBuild("tpcc", wl)}
}

var poolSchemes = []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeLSM, engine.SchemeNative}

// TestMatrixPoolWorkerCounts holds the capture→replay pool to the matrix's
// determinism bar: at every worker count the rendered grids are
// byte-identical and the metrics deep-equal, and both equal the direct
// matrix. CI runs it under the race detector, so the cells are small.
func TestMatrixPoolWorkerCounts(t *testing.T) {
	run := func(workers int, direct bool) (*Matrix, string) {
		opts := Options{Quick: true, Seed: 2, Workers: workers, TxsPerCell: 150, DirectMatrix: direct}
		m, err := RunMatrixOn(opts, poolWorkloads(), poolSchemes)
		if err != nil {
			t.Fatalf("workers %d, direct %v: %v", workers, direct, err)
		}
		var b strings.Builder
		for _, f := range []func(*Matrix) *Grid{Figure7a, Figure7b, Figure8, Figure9} {
			f(m).Render(&b)
		}
		return m, b.String()
	}
	want, wantGrids := run(1, true)
	for _, workers := range []int{1, 2, 3, 8} {
		m, grids := run(workers, false)
		if grids != wantGrids {
			t.Fatalf("%d workers: grids differ from the direct matrix\ngot:\n%s\nwant:\n%s", workers, grids, wantGrids)
		}
		if !reflect.DeepEqual(m.Cells, want.Cells) {
			t.Fatalf("%d workers: metrics differ from the direct matrix", workers)
		}
		cells := len(poolSchemes) * len(poolWorkloads())
		if m.Stats.Cells != cells || m.Stats.Workers != min(workers, cells) || m.CapturesRun != len(poolWorkloads()) {
			t.Fatalf("%d workers: stats %+v, %d captures run", workers, m.Stats, m.CapturesRun)
		}
	}
}

// TestMatrixPoolFailures checks that a capture that fails and a replay
// that panics each come back as an error naming the cell, at every worker
// count, without a deadlock and without leaving a worker running.
func TestMatrixPoolFailures(t *testing.T) {
	wls := poolWorkloads()[:2]
	ns := len(poolSchemes)
	cases := []struct {
		name string
		cell int // the broken cell: workload-major, ns schemes per column
		mut  func(*engine.Config)
		want string
	}{
		{"capture fails", ns, func(cfg *engine.Config) { cfg.Cache.Cores = 0 }, wls[1].Name + " on " + poolSchemes[0]},
		{"replay panics", 2, func(*engine.Config) { panic("injected") }, wls[0].Name + " on " + poolSchemes[2]},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3} {
			var cells []Cell
			for _, w := range wls {
				for _, s := range poolSchemes {
					cells = append(cells, Cell{Scheme: s, Workload: w, Txs: 100, Seed: 3})
				}
			}
			cells[tc.cell].Mut = tc.mut
			miss := make([]int, len(cells))
			for i := range miss {
				miss[i] = i
			}
			before := runtime.NumGoroutine()
			errc := make(chan error, 1)
			go func() {
				_, _, _, err := captureAndReplay(cells, miss, ns, workers)
				errc <- err
			}()
			var err error
			select {
			case err = <-errc:
			case <-time.After(2 * time.Minute):
				t.Fatalf("%s, %d workers: pool deadlocked", tc.name, workers)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, %d workers: error %v, want one naming %q", tc.name, workers, err, tc.want)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %d workers: %d goroutines before the pool, %d after", tc.name, workers, before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
