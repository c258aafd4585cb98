package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hoop/internal/engine"
	"hoop/internal/workload"
)

// TestCellCacheWarmRerun: a cold run populates the cache, a warm rerun
// executes zero cells, and the warm metrics are bit-identical — the
// property the CI cache-correctness job holds hoopbench to.
func TestCellCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: dir}
	wls := []workload.Workload{quickWL("queue"), quickWL("hashmap")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeNative}

	cold, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cached != 0 {
		t.Fatalf("cold run reported %d cached cells", cold.Stats.Cached)
	}
	warm, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Cached != warm.Stats.Cells || warm.Stats.Cells != len(wls)*len(schemes) {
		t.Fatalf("warm run cached %d/%d cells, want all %d", warm.Stats.Cached, warm.Stats.Cells, len(wls)*len(schemes))
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Fatalf("warm cache metrics diverge from cold run\ncold: %+v\nwarm: %+v", cold.Cells, warm.Cells)
	}
	if !strings.Contains(warm.Stats.String(), "cached") {
		t.Fatalf("stats string omits the cache count: %s", warm.Stats)
	}

	// Changing any key input — here the seed — must miss.
	opts2 := opts
	opts2.Seed = 4
	reseeded, err := RunMatrixOn(opts2, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Stats.Cached != 0 {
		t.Fatalf("reseeded run hit the cache (%d cells) despite a different seed", reseeded.Stats.Cached)
	}
}

// TestCellCacheCorruptionDegradesToMiss: unparseable, wrong-schema, and
// truncated entries all re-execute instead of feeding wrong numbers, and
// the re-executed run rewrites them into valid entries.
func TestCellCacheCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 3, Workers: 1, CacheDir: dir}
	wls := []workload.Workload{quickWL("queue")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP}

	cold, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("expected 2 cache entries, got %v (%v)", entries, err)
	}
	corruptions := map[string]func([]byte) []byte{
		"unparseable":  func([]byte) []byte { return []byte("{not json") },
		"wrong schema": func(b []byte) []byte { return []byte(strings.Replace(string(b), cacheSchema, "hoop-cellcache/v3", 1)) },
		"truncated":    func(b []byte) []byte { return b[:len(b)-1] },
	}
	for name, corrupt := range corruptions {
		for _, p := range entries {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := RunMatrixOn(opts, wls, schemes)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.Cached != 0 {
			t.Fatalf("%s entries still hit: %d cached", name, warm.Stats.Cached)
		}
		if !reflect.DeepEqual(cold.Cells, warm.Cells) {
			t.Fatalf("%s: re-executed metrics diverge from cold run", name)
		}
	}
	rewritten, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Stats.Cached != rewritten.Stats.Cells {
		t.Fatalf("re-executed entries were not rewritten: %d/%d cached", rewritten.Stats.Cached, rewritten.Stats.Cells)
	}
}

// TestDirectMatrixServedFromReplayCache: replay and direct execution share
// one cell key, so a DirectMatrix run after a cold replay run of the same
// cells executes nothing.
func TestDirectMatrixServedFromReplayCache(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: t.TempDir()}
	wls := []workload.Workload{quickWL("queue"), quickWL("hashmap")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeNative}
	replayM, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	opts.DirectMatrix = true
	directM, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if directM.Stats.Cached != directM.Stats.Cells || directM.Stats.Cells != len(wls)*len(schemes) {
		t.Fatalf("direct matrix cached %d/%d cells, want all %d", directM.Stats.Cached, directM.Stats.Cells, len(wls)*len(schemes))
	}
	if !reflect.DeepEqual(replayM.Cells, directM.Cells) {
		t.Fatal("cached direct matrix diverges from the replay run that filled the cache")
	}
}

// TestCellCacheAddScheme: widening a cached matrix by one scheme runs one
// in-memory capture per column — on the new scheme's cell — and executes
// only the new cells, with numbers identical to an uncached run.
func TestCellCacheAddScheme(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: t.TempDir()}
	wls := []workload.Workload{quickWL("queue"), quickWL("hashmap")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP}
	if _, err := RunMatrixOn(opts, wls, schemes); err != nil {
		t.Fatal(err)
	}
	wider := []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeNative}
	m, err := RunMatrixOn(opts, wls, wider)
	if err != nil {
		t.Fatal(err)
	}
	if m.CapturesRun != len(wls) {
		t.Fatalf("widened matrix ran %d captures, want one per column (%d)", m.CapturesRun, len(wls))
	}
	if executed := m.Stats.Cells - m.Stats.Cached; executed != len(wls) {
		t.Fatalf("widened matrix executed %d cells, want only the %d new ones", executed, len(wls))
	}
	uncached := opts
	uncached.CacheDir = ""
	want, err := RunMatrixOn(uncached, wls, wider)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Cells, want.Cells) {
		t.Fatalf("widened cached matrix diverges from an uncached run\ncached:   %+v\nuncached: %+v", m.Cells, want.Cells)
	}
}

// FuzzCacheEntry: arbitrary bytes stored under a valid key load as a
// miss — never a panic — unless they are exactly the bytes cacheStore
// writes for the value they decode to.
func FuzzCacheEntry(f *testing.F) {
	met := Metrics{Txs: 7, Counters: map[string]int64{"a": 1}}
	valid, err := encodeEntry(kindCell, met)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add([]byte(strings.Replace(string(valid), cacheSchema, "hoop-cellcache/v3", 1)))
	f.Add([]byte(strings.Replace(string(valid), kindCell, kindWear, 1)))
	f.Add([]byte(`{"schema":"` + cacheSchema + `","kind":"cell","value":{"Txs":7} }`))
	cc, err := openCellCache(Options{CacheDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	const key = "0123456789abcdef"
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(cc.dir, key+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit := cacheLoad[Metrics](cc, kindCell, key)
		if !hit {
			return
		}
		canon, err := encodeEntry(kindCell, got)
		if err != nil || !bytes.Equal(canon, raw) {
			t.Fatalf("loaded %+v from bytes cacheStore would not write:\n%q", got, raw)
		}
	})
}

// TestCellCacheLRUEviction: with a byte cap (-cachemax), the least
// recently used entries are evicted whole — an evicted column re-executes
// with bit-identical numbers, while entries touched by the capped run
// survive and keep hitting.
func TestCellCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP}
	wlA := []workload.Workload{quickWL("queue")}
	wlB := []workload.Workload{quickWL("hashmap")}
	base := Options{Quick: true, Seed: 3, Workers: 1, CacheDir: dir}

	coldA, err := RunMatrixOn(base, wlA, schemes)
	if err != nil {
		t.Fatal(err)
	}
	sizeA := cacheDirSize(t, dir)
	if sizeA <= 0 {
		t.Fatal("cold run left an empty cache")
	}

	// Run column B under a cap that cannot hold both columns: A's entries
	// (older, untouched by this run) are evicted; B's, pinned as used,
	// survive.
	capped := base
	capped.CacheMax = sizeA
	if _, err := RunMatrixOn(capped, wlB, schemes); err != nil {
		t.Fatal(err)
	}
	// Only B's two entries (capture + replay) remain on disk.
	if entries, err := filepath.Glob(filepath.Join(dir, "*.json")); err != nil || len(entries) != 2 {
		t.Fatalf("expected A's entries evicted leaving 2, got %v (%v)", entries, err)
	}

	warmB, err := RunMatrixOn(capped, wlB, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if warmB.Stats.Cached != warmB.Stats.Cells {
		t.Fatalf("surviving column cached %d/%d cells, want all", warmB.Stats.Cached, warmB.Stats.Cells)
	}

	rerunA, err := RunMatrixOn(base, wlA, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if rerunA.Stats.Cached != 0 {
		t.Fatalf("evicted column still hit the cache (%d cells)", rerunA.Stats.Cached)
	}
	if !reflect.DeepEqual(coldA.Cells, rerunA.Cells) {
		t.Fatal("re-executed metrics diverge from the pre-eviction run")
	}
}

// TestCellCacheSweepsStaleTemps: opening the cache removes temp files
// orphaned by a dead run, but leaves fresh ones (a concurrent run may
// still be mid-rename) and real entries alone.
func TestCellCacheSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "abc.json.tmp123")
	fresh := filepath.Join(dir, "def.json.tmp456")
	entry := filepath.Join(dir, "0ff.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	cc, err := openCellCache(Options{CacheDir: dir})
	if err != nil || cc == nil {
		t.Fatalf("openCellCache: %v (%v)", cc, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the sweep: %v", err)
	}
	for _, p := range []string{fresh, entry} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed %s: %v", filepath.Base(p), err)
		}
	}
}

// TestContentionCacheWarmRerun: the contention sweep memoizes per-cell,
// so a warm rerun reads every cell from cache and renders identical
// grids — the section-generic half of the -cachedir contract.
func TestContentionCacheWarmRerun(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: t.TempDir()}
	cache, err := opts.ensureCache()
	if err != nil {
		t.Fatal(err)
	}
	coldT, coldA, err := ContentionFigure(opts)
	if err != nil {
		t.Fatal(err)
	}
	coldHits := cache.stat().Hits
	warmT, warmA, err := ContentionFigure(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := cache.stat()
	cells := len(coldT.Rows) * len(coldT.Cols)
	if s.Hits-coldHits != cells {
		t.Fatalf("warm contention rerun hit %d cells, want all %d", s.Hits-coldHits, cells)
	}
	if !reflect.DeepEqual(coldT, warmT) || !reflect.DeepEqual(coldA, warmA) {
		t.Fatal("warm contention grids diverge from cold run")
	}
}

// TestWearCacheWarmRerun: the wear report caches as a blob (kindWear).
func TestWearCacheWarmRerun(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, CacheDir: t.TempDir(),
		WL: workload.Options{Keys: 4096, ValBytes: 64}}
	cache, err := opts.ensureCache()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Wear(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Wear(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stat().Hits != 1 {
		t.Fatalf("warm wear rerun recorded %d hits, want 1", cache.stat().Hits)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached wear report diverges\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// cacheDirSize sums the cache entries' bytes.
func cacheDirSize(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
