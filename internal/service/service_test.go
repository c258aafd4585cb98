package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/structures"
	"hoop/internal/telemetry"
)

func testEngine() engine.Config {
	cfg := engine.DefaultConfig(engine.SchemeHOOP)
	cfg.Threads = 1
	return cfg
}

func kvHandler(t *testing.T, cfg KVConfig) func(int) engine.ShardHandler {
	t.Helper()
	return func(int) engine.ShardHandler {
		h, err := NewKVHandler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

// shardStream derives shard j's request sequence as a pure function of
// (runSeed, j, i) — the same shape hoopd's sharded route mode uses, so the
// stream a shard sees never depends on the fleet size.
func shardStream(runSeed uint64, shard, n int) []engine.ShardRequest {
	seed := engine.ShardSeed(runSeed, shard)
	reqs := make([]engine.ShardRequest, n)
	for i := range reqs {
		r := mix64(seed + uint64(i)*0x9E3779B97F4A7C15)
		op := OpGet
		if r%2 == 0 {
			op = OpUpdate
		}
		reqs[i] = engine.ShardRequest{
			Arrival: sim.Time(i) * sim.Time(sim.Microsecond),
			Seq:     uint64(shard)<<48 | uint64(i),
			Kind:    op,
			Key:     r % 256,
			Aux:     mix64(r),
		}
	}
	return reqs
}

func TestOpenErrors(t *testing.T) {
	kv := kvHandler(t, KVConfig{Keys: 64})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no shards", Config{Shards: 0, Engine: testEngine(), Handler: kv}},
		{"nil handler", Config{Shards: 1, Engine: testEngine()}},
		{"multi-thread engine", Config{Shards: 1, Engine: engine.DefaultConfig(engine.SchemeHOOP), Handler: kv}},
		{"shed without delay", Config{Shards: 1, Engine: testEngine(), Handler: kv, Policy: PolicyShed}},
	}
	for _, c := range cases {
		if _, err := Open(c.cfg); err == nil {
			t.Errorf("%s: Open succeeded, want error", c.name)
		}
	}
}

// TestShardCountInvariance is the tentpole determinism property: with the
// direct per-shard submission path, shard 0's entire simulated run — final
// snapshot and telemetry trace — is byte-identical whether the fleet has 1
// shard or 8. CI runs this under -race: the eight serving goroutines truly
// run concurrently, so the comparison also proves shard isolation.
func TestShardCountInvariance(t *testing.T) {
	run := func(shards int) (snap []byte, trace []telemetry.Event) {
		tc := &telemetry.CellTrace{}
		svc, err := Open(Config{
			Shards:  shards,
			Seed:    1234,
			Engine:  testEngine(),
			Handler: kvHandler(t, KVConfig{Keys: 256, ValBytes: 16, Preload: 128}),
			Trace:   tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Serve()
		for j := 0; j < shards; j++ {
			for _, req := range shardStream(1234, j, 300) {
				svc.SubmitTo(j, req)
			}
		}
		svc.Quiesce()
		snap, err = json.Marshal(svc.Shard(0).System().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		svc.Close()
		for _, c := range readTrace(t, tc) {
			if c.Label == "shard-000" {
				trace = c.Events
			}
		}
		return snap, trace
	}
	snap1, trace1 := run(1)
	snap8, trace8 := run(8)
	if !bytes.Equal(snap1, snap8) {
		t.Errorf("shard 0 snapshot differs between -shards 1 and -shards 8:\n%s\n%s", snap1, snap8)
	}
	if !reflect.DeepEqual(trace1, trace8) {
		t.Errorf("shard 0 trace differs between -shards 1 and -shards 8 (%d vs %d events)",
			len(trace1), len(trace8))
	}
	if len(trace1) == 0 {
		t.Fatal("shard 0 trace is empty — the comparison proved nothing")
	}
}

// TestRingModeDeterminism: for a fixed shard count, the ring-routed Submit
// path replays identically.
func TestRingModeDeterminism(t *testing.T) {
	run := func() ([]byte, sim.Histogram) {
		tc := &telemetry.CellTrace{}
		svc, err := Open(Config{
			Shards:  3,
			Seed:    7,
			Engine:  testEngine(),
			Handler: kvHandler(t, KVConfig{Keys: 512, ValBytes: 16, Ring: &Ring{shards: 3}}),
			Trace:   tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Serve()
		for i := 0; i < 600; i++ {
			key := mix64(uint64(i)) % 512
			op := OpGet
			if i%3 == 0 {
				op = OpPut
			}
			svc.Submit(sim.Time(i)*sim.Time(sim.Microsecond), op, key, uint64(i))
		}
		svc.Quiesce()
		var buf bytes.Buffer
		if _, err := tc.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		h := svc.MergedSojourn()
		svc.Close()
		return buf.Bytes(), h
	}
	t1, h1 := run()
	t2, h2 := run()
	if !bytes.Equal(t1, t2) {
		t.Errorf("combined trace differs between identical ring-mode runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if h1 != h2 {
		t.Error("merged sojourn histograms differ between identical runs")
	}
	if h1.Count() != 600 {
		t.Errorf("merged sojourn count = %d, want 600", h1.Count())
	}
}

// TestRingModeRouting cross-checks Submit against Ring.Route and the
// router-side Submitted counters.
func TestRingModeRouting(t *testing.T) {
	svc, err := Open(Config{
		Shards:  4,
		Seed:    5,
		Engine:  testEngine(),
		Handler: kvHandler(t, KVConfig{Keys: 128, ValBytes: 16}),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Serve()
	want := make([]int64, 4)
	for i := 0; i < 200; i++ {
		key := uint64(i)
		shard := svc.Submit(sim.Time(i)*sim.Time(sim.Microsecond), OpPut, key, 0)
		if shard != svc.Route(key) {
			t.Fatalf("Submit sent key %d to shard %d, Route says %d", key, shard, svc.Route(key))
		}
		want[shard]++
	}
	svc.Quiesce()
	var total int64
	for i := 0; i < 4; i++ {
		if svc.Submitted(i) != want[i] {
			t.Errorf("Submitted(%d) = %d, want %d", i, svc.Submitted(i), want[i])
		}
		total += svc.Shard(i).Executed()
	}
	if total != 200 {
		t.Errorf("fleet executed %d, want 200", total)
	}
	svc.Close()
}

// TestShedAccounting drives a shard far past capacity under PolicyShed and
// checks sheds are deterministic and conserved: offered = executed + shed.
func TestShedAccounting(t *testing.T) {
	run := func() (executed, shed int64) {
		svc, err := Open(Config{
			Shards: 1,
			Seed:   11,
			Engine: testEngine(),
			// Large values + tiny arrival gaps overload the single shard.
			Handler:   kvHandler(t, KVConfig{Keys: 64, ValBytes: 256, Preload: 1}),
			Policy:    PolicyShed,
			ShedDelay: 2 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Serve()
		const n = 500
		for i := 0; i < n; i++ {
			svc.SubmitTo(0, engine.ShardRequest{
				Arrival: sim.Time(i) * sim.Time(100*sim.Nanosecond),
				Seq:     uint64(i),
				Kind:    OpPut,
				Key:     uint64(i % 64),
				Aux:     uint64(i),
			})
		}
		svc.Quiesce()
		executed, shed = svc.Executed(), svc.Shed()
		svc.Close()
		if executed+shed != n {
			t.Fatalf("executed %d + shed %d != offered %d", executed, shed, n)
		}
		return executed, shed
	}
	e1, s1 := run()
	e2, s2 := run()
	if s1 == 0 {
		t.Fatal("overloaded fleet shed nothing")
	}
	if e1 != e2 || s1 != s2 {
		t.Fatalf("shedding not deterministic: (%d,%d) vs (%d,%d)", e1, s1, e2, s2)
	}
}

// TestMergedHistograms: the fleet sojourn histogram counts every executed
// request exactly once, and MergedLatency is non-empty after load.
func TestMergedHistograms(t *testing.T) {
	svc, err := Open(Config{
		Shards:  2,
		Seed:    21,
		Engine:  testEngine(),
		Handler: kvHandler(t, KVConfig{Keys: 128, ValBytes: 16}),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Serve()
	for j := 0; j < 2; j++ {
		for _, req := range shardStream(21, j, 100) {
			svc.SubmitTo(j, req)
		}
	}
	svc.Quiesce()
	sojourn := svc.MergedSojourn()
	if got := sojourn.Count(); got != svc.Executed() {
		t.Errorf("merged sojourn count = %d, want executed = %d", got, svc.Executed())
	}
	latency := svc.MergedLatency()
	if latency.Count() == 0 {
		t.Error("merged engine latency histogram is empty")
	}
	if svc.MaxStreamSpan() <= 0 {
		t.Errorf("MaxStreamSpan = %v, want > 0", svc.MaxStreamSpan())
	}
	for i := 0; i < 2; i++ {
		if svc.StreamSpan(i) > sim.Duration(svc.MaxSpan()) {
			t.Errorf("shard %d stream span %v exceeds full span", i, svc.StreamSpan(i))
		}
	}
	svc.Close()
}

// TestKVHandlerRoundtrip exercises every opcode through a single shard and
// checks the op counters and table contents.
func TestKVHandlerRoundtrip(t *testing.T) {
	var h *KVHandler
	svc, err := Open(Config{
		Shards: 1,
		Seed:   31,
		Engine: testEngine(),
		Handler: func(int) engine.ShardHandler {
			var err error
			h, err = NewKVHandler(KVConfig{Keys: 64, ValBytes: 16, Preload: 32})
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Serve()
	us := sim.Time(sim.Microsecond)
	submit := func(i int, op uint8, key, aux uint64) {
		svc.SubmitTo(0, engine.ShardRequest{Arrival: sim.Time(i) * us, Kind: op, Key: key, Aux: aux})
	}
	submit(0, OpGet, 5, 0)     // preloaded: hit
	submit(1, OpGet, 50, 0)    // beyond preload: miss
	submit(2, OpPut, 50, 9)    // insert
	submit(3, OpGet, 50, 0)    // now a hit
	submit(4, OpUpdate, 5, 3)  // in-place word update
	submit(5, OpUpdate, 60, 3) // miss → upsert
	submit(6, OpDelete, 5, 0)
	submit(7, OpGet, 5, 0) // deleted: miss
	svc.Quiesce()

	if h.Gets != 4 || h.GetMisses != 2 || h.Puts != 1 || h.Updates != 2 || h.Deletes != 1 {
		t.Errorf("op counters gets=%d misses=%d puts=%d updates=%d deletes=%d",
			h.Gets, h.GetMisses, h.Puts, h.Updates, h.Deletes)
	}
	if n := h.Table().Len(); n != 32+2-1 {
		t.Errorf("table has %d entries, want %d (32 preloaded + 2 inserted - 1 deleted)", n, 33)
	}
	svc.Close()
}

// TestTraceCollectorLayout checks the Config.Trace cell structure: router
// first (when ring-routed events exist), then shards in index order.
func TestTraceCollectorLayout(t *testing.T) {
	tc := &telemetry.CellTrace{}
	svc, err := Open(Config{
		Shards:  2,
		Seed:    41,
		Engine:  testEngine(),
		Handler: kvHandler(t, KVConfig{Keys: 64, ValBytes: 16}),
		Trace:   tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Serve()
	for i := 0; i < 20; i++ {
		svc.Submit(sim.Time(i)*sim.Time(sim.Microsecond), OpPut, uint64(i), 0)
	}
	svc.Quiesce()
	svc.Close()

	var markers []string
	for _, c := range readTrace(t, tc) {
		markers = append(markers, c.Label)
	}
	want := []string{"router", "shard-000", "shard-001"}
	if len(markers) != len(want) {
		t.Fatalf("cells = %v, want %v", markers, want)
	}
	for i := range want {
		if markers[i] != want[i] {
			t.Fatalf("cells = %v, want %v", markers, want)
		}
	}
}

// readTrace writes tc out and splits the stream back into its cells.
func readTrace(t *testing.T, tc *telemetry.CellTrace) []telemetry.Cell {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []telemetry.Cell
	if err := telemetry.ReadCells(&buf, func(c telemetry.Cell) error {
		cells = append(cells, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cells
}

// Table exposes the shard's hash map (read after Quiesce).
func (h *KVHandler) Table() *structures.HashMap { return h.table }

// Route reports which shard owns key without submitting anything.
func (s *Service) Route(key uint64) int { return s.ring.Route(key) }

// Submitted reports how many requests the router has sent to shard i.
func (s *Service) Submitted(shard int) int64 { return s.subs[shard] }

// MergedLatency folds every shard engine's transaction critical-path
// latency distribution (service time only, no queueing) into one
// fleet-wide histogram.
func (s *Service) MergedLatency() sim.Histogram {
	var out sim.Histogram
	for _, sh := range s.shards {
		h := sh.System().LatencyHistogram()
		out.Merge(&h)
	}
	return out
}

// MaxSpan reports the latest simulated clock across the fleet.
func (s *Service) MaxSpan() sim.Time {
	var m sim.Time
	for _, sh := range s.shards {
		m = sim.MaxTime(m, sh.System().MaxClock())
	}
	return m
}
