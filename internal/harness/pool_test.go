package harness

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hoop/internal/cc"
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

// poolRun is one run of a worker-count row: replay, direct matrix, or
// RunCells, at the given worker count (0 = GOMAXPROCS).
type poolRun struct {
	workers int
	direct  bool
}

// TestMatrixPoolWorkerCounts holds the one cell pool to its determinism
// bar: each row's runs, at every worker count and through every task kind,
// produce the same metrics as the row's reference run, and matrix rows
// render byte-identical grids. RunCells rows run direct tasks; matrix
// rows run capture and replay tasks, or direct ones under DirectMatrix.
// CI runs it under the race detector, so the cells are small.
func TestMatrixPoolWorkerCounts(t *testing.T) {
	quickWLs := func(names ...string) []workload.Workload {
		var wls []workload.Workload
		for _, n := range names {
			wls = append(wls, quickWL(n))
		}
		return wls
	}
	small := []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeNative}
	rows := []struct {
		name     string
		short    bool // skipped under -short: seconds-long
		runCells bool // the cells run through RunCells, scheme-major
		wls      []workload.Workload
		schemes  []string
		opts     Options // Seed, Quick and TxsPerCell; RunCells rows use Seed and TxsPerCell
		ref      poolRun
		runs     []poolRun
	}{
		{name: "RunCellsMatchesSerial", runCells: true, wls: quickWLs("hashmap", "queue"), schemes: []string{engine.SchemeHOOP, engine.SchemeRedo, engine.SchemeNative},
			opts: Options{Seed: 7, TxsPerCell: 200}, ref: poolRun{workers: 1}, runs: []poolRun{{workers: 4}}},
		{name: "MatrixPool", wls: poolWorkloads(), schemes: poolSchemes,
			opts: Options{Quick: true, Seed: 2, TxsPerCell: 150}, ref: poolRun{workers: 1, direct: true}, runs: []poolRun{{workers: 1}, {workers: 2}, {workers: 3}, {workers: 8}}},
		{name: "ParallelMatrixDeterminism", short: true, wls: []workload.Workload{quickWL("hashmap"), workload.YCSB(64)}, schemes: engine.AllSchemes,
			opts: Options{Quick: true, Seed: 3}, ref: poolRun{workers: 1}, runs: []poolRun{{workers: 0}}},
		{name: "MatrixReplayWorkerDeterminism", wls: quickWLs("hashmap"), schemes: small,
			opts: Options{Quick: true, Seed: 3}, ref: poolRun{workers: 1}, runs: []poolRun{{workers: 4}}},
		{name: "MatrixReplayMatchesDirectMatrix", wls: quickWLs("queue"), schemes: small,
			opts: Options{Quick: true, Seed: 3}, ref: poolRun{workers: 2, direct: true}, runs: []poolRun{{workers: 2}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.short && testing.Short() {
				t.Skip("matrix run is seconds-long")
			}
			ncells := len(row.wls) * len(row.schemes)
			// run returns the row's metrics in a fixed order and, for a
			// matrix, its rendered grids.
			run := func(r poolRun) ([]Metrics, string) {
				want := CellStats{Cells: ncells, Workers: min(r.workers, ncells)}
				if r.workers == 0 {
					want.Workers = min(runtime.GOMAXPROCS(0), ncells)
				}
				if row.runCells {
					var cells []Cell
					for _, s := range row.schemes {
						for _, wl := range row.wls {
							cells = append(cells, Cell{Scheme: s, Workload: wl, Txs: row.opts.TxsPerCell, Seed: row.opts.Seed})
						}
					}
					mets, stats, err := RunCells(cells, r.workers)
					if err != nil {
						t.Fatalf("%+v: %v", r, err)
					}
					if stats.Cells != want.Cells || stats.Workers != want.Workers {
						t.Fatalf("%+v: stats %+v, want %d cells on %d workers", r, stats, want.Cells, want.Workers)
					}
					return mets, ""
				}
				opts := row.opts
				opts.Workers, opts.DirectMatrix = r.workers, r.direct
				m, err := RunMatrixOn(opts, row.wls, row.schemes)
				if err != nil {
					t.Fatalf("%+v: %v", r, err)
				}
				captures := len(row.wls)
				if r.direct {
					captures = 0
				}
				if m.Stats.Cells != want.Cells || m.Stats.Workers != want.Workers || m.CapturesRun != captures {
					t.Fatalf("%+v: stats %+v, %d captures run, want %d cells on %d workers, %d captures", r, m.Stats, m.CapturesRun, want.Cells, want.Workers, captures)
				}
				var mets []Metrics
				for _, w := range m.Workloads {
					for _, s := range m.Schemes {
						mets = append(mets, m.Cells[w][s])
					}
				}
				var b strings.Builder
				for _, f := range []func(*Matrix) *Grid{Figure7a, Figure7b, Figure8, Figure9} {
					f(m).Render(&b)
				}
				return mets, b.String()
			}
			want, wantGrids := run(row.ref)
			for _, r := range row.runs {
				mets, grids := run(r)
				if grids != wantGrids {
					t.Fatalf("%+v: grids differ from %+v\ngot:\n%s\nwant:\n%s", r, row.ref, grids, wantGrids)
				}
				if !reflect.DeepEqual(mets, want) {
					for i := range mets {
						if !reflect.DeepEqual(mets[i], want[i]) {
							t.Errorf("%+v: cell %d diverges from %+v\ngot:  %+v\nwant: %+v", r, i, row.ref, mets[i], want[i])
						}
					}
					t.Fatalf("%+v: metrics differ from %+v", r, row.ref)
				}
			}
		})
	}
}

// TestMatrixPoolFailures checks that a failing or panicking cell of every
// task kind comes back as an error naming the cell's workload and scheme,
// at every worker count, without a deadlock and without leaving a worker
// running: a capture that fails, a replay that panics, a direct cell that
// panics, and a contention cell that fails to build.
func TestMatrixPoolFailures(t *testing.T) {
	wls := poolWorkloads()[:2]
	ns := len(poolSchemes)
	matrix := func() []Cell {
		var cells []Cell
		for _, w := range wls {
			for _, s := range poolSchemes {
				cells = append(cells, Cell{Scheme: s, Workload: w, Txs: 100, Seed: 3})
			}
		}
		return cells
	}
	quick := Options{Quick: true, Seed: 3}
	contention := func() []Cell {
		return []Cell{
			contentionPoint(engine.SchemeHOOP, cc.PolicyOCC, 0.9, 2, quick),
			contentionPoint(engine.SchemeUndo, cc.Policy2PL, 0.9, 0, quick), // zero threads: engine.New fails
			contentionPoint(engine.SchemeRedo, cc.PolicyOCC, 0.5, 2, quick),
		}
	}
	cases := []struct {
		name  string
		cells []Cell
		ns    int // schemes per column; 0 runs every cell direct
		cell  int // the broken cell
		mut   func(*engine.Config)
		want  string
	}{
		{"capture fails", matrix(), ns, ns, func(cfg *engine.Config) { cfg.Cache.Cores = 0 }, wls[1].Name + " on " + poolSchemes[0]},
		{"replay panics", matrix(), ns, 2, func(*engine.Config) { panic("injected") }, wls[0].Name + " on " + poolSchemes[2]},
		{"direct panics", matrix(), 0, 5, func(*engine.Config) { panic("injected") }, wls[1].Name + " on " + poolSchemes[1]},
		{"contention fails", contention(), 0, 1, nil, contention()[1].Workload.Name + " on " + engine.SchemeUndo},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3} {
			cells := append([]Cell(nil), tc.cells...)
			if tc.mut != nil {
				cells[tc.cell].Mut = tc.mut
			}
			opts := Options{Workers: workers}
			before := runtime.NumGoroutine()
			errc := make(chan error, 1)
			go func() {
				_, _, _, err := runCached(cells, opts, tc.ns)
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
