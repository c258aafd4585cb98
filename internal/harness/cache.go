package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hoop/internal/engine"
)

// cacheSchema versions the on-disk cell cache. Bump it whenever the
// simulator's measured semantics change in a way the config string cannot
// express (engine scheduling, scheme internals, metric definitions): the
// version participates in every key, so a bump invalidates everything.
// v4: one entry layout for every job; matrix cells share the direct-cell
// key, and captures stay in memory (no trace files).
const cacheSchema = "hoop-cellcache/v4"

// Entry kinds. The kind participates in the key and is checked on load, so
// kinds can never alias each other even with otherwise identical inputs.
const (
	kindCell = "cell" // a Cell, whether run direct, captured, or replayed
	kindWear = "wear"
)

// cacheEntry is the one on-disk layout, stored as <key>.json.
type cacheEntry struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Value  json.RawMessage `json:"value"`
}

// cacheStats counts one section's cache traffic (entry bytes read and
// written).
type cacheStats struct {
	Hits, Misses            int
	BytesRead, BytesWritten int64
}

// cellCache memoizes harness jobs on disk, each keyed by its full inputs.
// Cached values round-trip through JSON exactly (sim.Histogram included),
// so a warm rerun renders byte-identical grids. All cache I/O happens on
// the orchestrator goroutine between batches — workers never touch it.
type cellCache struct {
	dir string
	// section labels hit/miss attribution; RunSections rotates it.
	section string
	order   []string
	stats   map[string]*cacheStats
}

// staleTempAge is how old an orphaned *.tmp* file must be before the
// sweep on cache open deletes it: temps live for milliseconds, but a fresh
// one may belong to a concurrent run sharing the cache dir.
const staleTempAge = time.Hour

// openCellCache returns nil when caching is off. Tracing disables the
// cache: a cached cell executes nothing, so it cannot feed a JSONL sink.
func openCellCache(opts Options) (*cellCache, error) {
	if opts.CacheDir == "" || opts.Trace != nil {
		return nil, nil
	}
	if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: -cachedir: %w", err)
	}
	cc := &cellCache{dir: opts.CacheDir, stats: map[string]*cacheStats{}}
	cc.sweepTemps()
	return cc, nil
}

// sweepTemps deletes stale temp files orphaned by runs that died between
// CreateTemp and the rename in writeFile.
func (cc *cellCache) sweepTemps() {
	ents, _ := os.ReadDir(cc.dir)
	for _, ent := range ents {
		info, err := ent.Info()
		if err == nil && !ent.IsDir() && strings.Contains(ent.Name(), ".tmp") && time.Since(info.ModTime()) > staleTempAge {
			os.Remove(filepath.Join(cc.dir, ent.Name()))
		}
	}
}

// setSection switches hit/miss attribution; "" falls back to "run".
func (cc *cellCache) setSection(name string) {
	if cc != nil {
		cc.section = name
	}
}

func (cc *cellCache) stat() *cacheStats {
	name := cc.section
	if name == "" {
		name = "run"
	}
	s := cc.stats[name]
	if s == nil {
		s = &cacheStats{}
		cc.stats[name] = s
		cc.order = append(cc.order, name)
	}
	return s
}

// cacheKey hashes a job's full inputs: the schema, the kind, the job's own
// fields, and its effective engine config — %+v of the post-mut Config,
// deterministic because Config is all value fields except SchemeOpts,
// whose map order is not. Jobs carrying SchemeOpts return "" (uncached).
func cacheKey(kind, scheme string, mut func(*engine.Config), fields string) string {
	cfg := engine.DefaultConfig(scheme)
	if mut != nil {
		mut(&cfg)
	}
	if cfg.SchemeOpts != nil {
		return ""
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%s\n%s\nconfig=%+v\n", cacheSchema, kind, fields, cfg)))
	return hex.EncodeToString(sum[:])
}

// cellKey keys one Cell. Direct, capture, and replay execution of a cell
// are bit-identical, so every section shares this key. Cells with a sink
// are not cached.
func cellKey(c Cell) string {
	if c.Sink != nil {
		return ""
	}
	return cacheKey(kindCell, c.Scheme, c.mut(), fmt.Sprintf("workload=%s\nseed=%d\ntxs=%d\nopts=%+v\npolicy=%s",
		c.Workload.Name, c.Seed, c.Txs, c.Workload.Opts, c.Policy))
}

// maxEntryBytes caps how much of a cache file is ever read. Cache bytes
// are untrusted and a real entry is about 1 KB, so anything larger is a
// miss (and "foreign" to the inventory), never an unbounded allocation.
const maxEntryBytes = 1 << 20

// readEntry reads the file at path, failing once it exceeds maxEntryBytes.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(io.LimitReader(f, maxEntryBytes+1))
	if err == nil && len(raw) > maxEntryBytes {
		err = fmt.Errorf("%s: over the %d-byte cache entry cap", path, maxEntryBytes)
	}
	return raw, err
}

// encodeEntry renders v as the bytes cacheStore writes for it.
func encodeEntry(kind string, v any) ([]byte, error) {
	val, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cacheEntry{Schema: cacheSchema, Kind: kind, Value: val})
}

// cacheLoad returns the value stored under key, or a miss on any problem:
// a missing or oversized file, bad JSON, the wrong schema or kind, or
// bytes that are not exactly what cacheStore would have written for the
// decoded value. Corruption therefore degrades to re-execution, never to
// wrong numbers.
func cacheLoad[T any](cc *cellCache, kind, key string) (T, bool) {
	var e cacheEntry
	var v T
	raw, err := readEntry(filepath.Join(cc.dir, key+".json"))
	ok := err == nil && json.Unmarshal(raw, &e) == nil && e.Schema == cacheSchema && e.Kind == kind && json.Unmarshal(e.Value, &v) == nil
	if ok {
		canon, err := encodeEntry(kind, v)
		ok = err == nil && bytes.Equal(canon, raw)
	}
	if !ok {
		cc.stat().Misses++
		return *new(T), false
	}
	s := cc.stat()
	s.Hits++
	s.BytesRead += int64(len(raw))
	return v, true
}

// cacheStore writes v under key.
func cacheStore(cc *cellCache, kind, key string, v any) error {
	data, err := encodeEntry(kind, v)
	if err != nil {
		return fmt.Errorf("harness: cache: %w", err)
	}
	return cc.writeFile(key+".json", data)
}

// cachedBatch memoizes a batch of n jobs. With a cache, key(i) names job
// i ("" = uncacheable); run receives the indices of every job the cache
// could not serve, in order, and returns their values, which are then
// stored. With cc nil every job runs. Returns all n values and the count
// served from the cache.
func cachedBatch[T any](cc *cellCache, kind string, n int, key func(i int) string, run func(miss []int) ([]T, error)) ([]T, int, error) {
	vals := make([]T, n)
	keys := make([]string, n)
	var miss []int
	for i := range vals {
		if cc != nil {
			keys[i] = key(i)
		}
		if keys[i] != "" {
			if v, ok := cacheLoad[T](cc, kind, keys[i]); ok {
				vals[i] = v
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return vals, n, nil
	}
	res, err := run(miss)
	if err != nil {
		return nil, 0, err
	}
	for k, i := range miss {
		vals[i] = res[k]
		if keys[i] != "" {
			if err := cacheStore(cc, kind, keys[i], res[k]); err != nil {
				return nil, 0, err
			}
		}
	}
	return vals, n - len(miss), nil
}

// writeFile writes via a temp file + rename so an interrupted run never
// leaves a half-written entry a later run could load.
func (cc *cellCache) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(cc.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cache: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(cc.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache: %w", err)
	}
	cc.stat().BytesWritten += int64(len(data))
	return nil
}

// ReadCacheInventory summarizes a cell cache directory without running
// anything (hoopbench -cachestats): files by entry kind ("foreign" for
// anything that is not a current-schema entry of a kind this build
// writes, or is over the entry size cap), orphaned temps, and total bytes.
func ReadCacheInventory(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("harness: -cachestats: %w", err)
	}
	known := []string{kindCell, kindWear}
	kinds := map[string]int{}
	files, total := 0, int64(0)
	for _, ent := range ents {
		info, err := ent.Info()
		if ent.IsDir() || err != nil {
			continue
		}
		files++
		total += info.Size()
		var e cacheEntry
		raw, err := readEntry(filepath.Join(dir, ent.Name()))
		switch {
		case strings.Contains(ent.Name(), ".tmp"):
			e.Kind = "orphaned temp"
		case err != nil || json.Unmarshal(raw, &e) != nil || e.Schema != cacheSchema || !slices.Contains(known, e.Kind):
			e.Kind = "foreign"
		}
		kinds[e.Kind]++
	}
	var b strings.Builder
	for _, k := range append(known, "foreign", "orphaned temp") {
		if kinds[k] > 0 {
			fmt.Fprintf(&b, "  %-15s %d files\n", k+":", kinds[k])
		}
	}
	fmt.Fprintf(&b, "  %-15s %d files, %s", "all:", files, fmtBytes(total))
	return b.String(), nil
}
