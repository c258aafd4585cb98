package harness

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hoop/internal/engine"
	"hoop/internal/workload"
)

// taskKind says how the pool runs a cell.
type taskKind uint8

const (
	taskDirect  taskKind = iota // execute the cell's workload
	taskCapture                 // execute it with a recorder, yielding its column
	taskReplay                  // replay a captured column
)

// task is one job of the cell pool: the cell at index k of the batch. A
// capture carries the indices of its column's replay cells, queued once
// it ends; a replay carries the column it replays.
type task struct {
	k       int
	kind    taskKind
	replays []int
	col     *workload.Captured
}

// RunCells executes every cell on a bounded worker pool and returns the
// per-cell metrics in input order. workers < 1 means runtime.GOMAXPROCS.
// Because cells are fully independent and seeded individually, the results
// are bit-identical for every worker count; only wall-clock changes.
func RunCells(cells []Cell, workers int) ([]Metrics, CellStats, error) {
	queue := make([]task, len(cells))
	for k := range queue {
		queue[k].k = k
	}
	return runPool(cells, queue, Options{Workers: workers}.workers())
}

// runCached is how every section runs its cells. It looks up each cell in
// the run's cell cache, plans the misses as pool tasks, runs them, and
// stores their results. With ns 0 every miss runs direct. Otherwise cells
// is a matrix of ns schemes per workload column: each column's first
// missing cell runs as a capture, and the column's other missing cells
// replay it. Direct, capture, and replay runs of a cell are bit-identical,
// so they share one cache key. The stats count every cell, cached ones
// included; captures is the number of captures run.
func runCached(cells []Cell, opts Options, ns int) (mets []Metrics, stats CellStats, captures int, err error) {
	cache, err := opts.ensureCache()
	if err != nil {
		return nil, stats, 0, err
	}
	mets = make([]Metrics, len(cells))
	keys := make([]string, len(cells))
	var miss []Cell
	var at []int // at[k] is miss[k]'s index in cells
	var queue []task
	for i, c := range cells {
		if cache != nil {
			keys[i] = cellKey(c)
		}
		if keys[i] != "" {
			if m, ok := cacheLoad[Metrics](cache, kindCell, keys[i]); ok {
				mets[i] = m
				continue
			}
		}
		k := len(miss)
		miss, at = append(miss, c), append(at, i)
		// A column's cells are adjacent, so its capture, if any, is the
		// last task queued.
		switch last := len(queue) - 1; {
		case ns == 0:
			queue = append(queue, task{k: k})
		case last >= 0 && at[queue[last].k]/ns == i/ns:
			queue[last].replays = append(queue[last].replays, k)
		default:
			queue = append(queue, task{k: k, kind: taskCapture})
			captures++
		}
	}
	stats.Workers = opts.workers()
	if len(miss) > 0 {
		var res []Metrics
		if res, stats, err = runPool(miss, queue, stats.Workers); err != nil {
			return nil, stats, 0, err
		}
		for k, i := range at {
			mets[i] = res[k]
			if keys[i] != "" {
				if err := cacheStore(cache, kindCell, keys[i], res[k]); err != nil {
					return nil, stats, 0, err
				}
			}
		}
	}
	stats.Cells, stats.Cached = len(cells), len(cells)-len(miss)
	return mets, stats, captures, nil
}

// runPool runs the queued tasks over cells on one pool of workers and
// returns the results in cell order. Workers take tasks from the front of
// a ready queue, with no barrier between kinds. When a capture ends, its column's replays join the queue behind any
// pending capture, heaviest column first, so a long capture runs while
// other workers replay the columns that are ready. Each replay task holds
// its column and nothing else does, so a column is freed once its last
// replay ends. The first error stops further dispatch and names the cell.
func runPool(cells []Cell, queue []task, workers int) ([]Metrics, CellStats, error) {
	workers = min(workers, len(cells))
	stats := CellStats{Cells: len(cells), Workers: workers}
	if len(cells) == 0 {
		return nil, stats, nil
	}
	res := make([]Metrics, len(cells))
	walls := make([]time.Duration, len(cells))
	var (
		mu      sync.Mutex
		wake    = sync.NewCond(&mu)
		running int
		failed  error
	)
	// next blocks until a task is ready and returns it, or returns false
	// once the queue is drained with nothing running, or after an error.
	next := func() (task, bool) {
		mu.Lock()
		defer mu.Unlock()
		for failed == nil && len(queue) == 0 && running > 0 {
			wake.Wait()
		}
		if failed != nil || len(queue) == 0 {
			return task{}, false
		}
		running++
		t := queue[0]
		queue[0] = task{} // the queue must not keep a finished column alive
		queue = queue[1:]
		return t, true
	}
	// done records a finished task and, for a capture, queues its column's
	// replays.
	done := func(t task, col *workload.Captured, err error) {
		mu.Lock()
		defer mu.Unlock()
		running--
		switch {
		case err != nil:
			if failed == nil {
				c := cells[t.k]
				failed = fmt.Errorf("harness: %s on %s: %w", c.Workload.Name, c.Scheme, err)
			}
		case col != nil:
			at, w := 0, columnWeight(col)
			for at < len(queue) && (queue[at].kind != taskReplay || columnWeight(queue[at].col) >= w) {
				at++
			}
			batch := make([]task, len(t.replays))
			for j, k := range t.replays {
				batch[j] = task{k: k, kind: taskReplay, col: col}
			}
			queue = slices.Insert(queue, at, batch...)
		}
		wake.Broadcast()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t, ok := next(); ok; t, ok = next() {
				cellStart := time.Now()
				met, col, err := runTask(cells[t.k], t)
				res[t.k], walls[t.k] = met, time.Since(cellStart)
				done(t, col, err)
			}
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	for _, d := range walls {
		stats.CellSum += d
		stats.MaxCell = max(stats.MaxCell, d)
	}
	if failed != nil {
		return nil, stats, failed
	}
	return res, stats, nil
}

// runTask runs one cell as its task says, returning the column a capture
// records. The cell's system is released when it ends, so the next cell
// reuses its cache tag arrays. A panic comes back as an error, so one bad
// cell cannot take the pool down.
func runTask(c Cell, t task) (met Metrics, col *workload.Captured, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var sys *engine.System
	switch t.kind {
	case taskDirect:
		met, sys, err = runCellSystem(c)
	case taskCapture:
		met, col, sys, err = captureCellRun(c)
	case taskReplay:
		met, sys, err = replayCellRun(c, t.col)
	}
	if sys != nil {
		sys.Release()
	}
	return met, col, err
}
