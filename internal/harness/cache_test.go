package harness

import (
	"bytes"
	"fmt"
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
	f.Add(canonEntryOfSize(f, maxEntryBytes+1))
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

// canonEntryOfSize returns exactly the bytes cacheStore writes for a
// Metrics whose one counter name pads the entry to n bytes.
func canonEntryOfSize(tb testing.TB, n int) []byte {
	tb.Helper()
	entry := func(pad int) []byte {
		raw, err := encodeEntry(kindCell, Metrics{Txs: 7, Counters: map[string]int64{strings.Repeat("a", pad): 1}})
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	raw := entry(n - len(entry(0)))
	if len(raw) != n {
		tb.Fatalf("padded entry is %d bytes, want %d", len(raw), n)
	}
	return raw
}

// TestCacheEntrySizeCap: a canonical entry at the size cap loads, but one
// byte over it is a miss to cacheLoad and foreign to the inventory, so
// hostile cache files never cost more than the cap to read.
func TestCacheEntrySizeCap(t *testing.T) {
	const key = "0123456789abcdef"
	for _, tc := range []struct {
		size int
		hit  bool
		kind string
	}{
		{maxEntryBytes, true, "cell"},
		{maxEntryBytes + 1, false, "foreign"},
	} {
		cc, err := openCellCache(Options{CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cc.dir, key+".json"), canonEntryOfSize(t, tc.size), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit := cacheLoad[Metrics](cc, kindCell, key); hit != tc.hit {
			t.Errorf("%d-byte entry: hit = %v, want %v", tc.size, hit, tc.hit)
		}
		if got, want := inventoryCounts(t, cc.dir), map[string]int{tc.kind: 1, "all": 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("%d-byte entry: inventory %v, want %v", tc.size, got, want)
		}
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

// TestContentionCacheWarmRerun: contention sweep points are ordinary
// cells, memoized under the one cell kind, so a warm rerun reads every
// cell from cache and renders identical grids — the section-generic half
// of the -cachedir contract.
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
	if got, want := inventoryCounts(t, opts.CacheDir), map[string]int{"cell": cells, "all": cells}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cache inventory %v, want every contention cell stored as a cell entry: %v", got, want)
	}
}

// TestCacheInventoryCountsForeignKinds: -cachestats accounts for every
// file on exactly one line — a current-schema entry of a kind this build
// does not write (such as the retired "contention" kind) counts as
// foreign — so the per-kind lines always sum to the all: line.
func TestCacheInventoryCountsForeignKinds(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 3, Workers: 1, CacheDir: dir}
	if _, err := RunMatrixOn(opts, []workload.Workload{quickWL("queue")}, []string{engine.SchemeHOOP}); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"c0ffee.json":       `{"schema":"` + cacheSchema + `","kind":"contention","value":{}}`,
		"oldschema.json":    `{"schema":"hoop-cellcache/v3","kind":"cell","value":{}}`,
		"abc.json.tmp12345": "x",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := inventoryCounts(t, dir)
	want := map[string]int{"cell": 1, "foreign": 2, "orphaned temp": 1, "all": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inventory counts %v, want %v", got, want)
	}
}

// inventoryCounts parses ReadCacheInventory's "<kind>: N files" lines and
// checks that the per-kind counts sum to the all: line.
func inventoryCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	inv, err := ReadCacheInventory(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	sum := 0
	for _, line := range strings.Split(inv, "\n") {
		kind, rest, ok := strings.Cut(strings.TrimSpace(line), ":")
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d files", &n); !ok || err != nil {
			t.Fatalf("malformed inventory line %q:\n%s", line, inv)
		}
		got[kind] = n
		if kind != "all" {
			sum += n
		}
	}
	if sum != got["all"] {
		t.Fatalf("per-kind lines sum to %d files, all: says %d:\n%s", sum, got["all"], inv)
	}
	return got
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
