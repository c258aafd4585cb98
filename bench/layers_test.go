package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopSharesSumToOne(t *testing.T) {
	text, err := os.ReadFile("testdata/contention.top")
	if err != nil {
		t.Fatal(err)
	}
	p, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatalf("total %v, want the header's sample total", p.total)
	}
	sum := 0.0
	for l, s := range p.self {
		if !isLayer(l) {
			t.Errorf("folded into unknown layer %q", l)
		}
		sum += s / p.total
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("layer shares sum to %.4f, want 1.00 ± 0.01", sum)
	}
	// A generic instantiation whose name holds spaces keeps its whole name.
	name := "hoop/internal/u64map.(*Map[go.shape.struct { hoop/internal/cc.x int32; hoop/internal/cc.sharers uint64; hoop/internal/cc.waiters uint64; hoop/internal/cc.xFreeAt hoop/internal/sim.Time; hoop/internal/cc.sFreeAt hoop/internal/sim.Time }]).Ref"
	if p.cum[name] != 0.09 {
		t.Errorf("cum of %s = %v, want 0.09", name, p.cum[name])
	}
	if p.cum["runtime.chanrecv"] == 0 {
		t.Error("runtime.chanrecv has no cumulative time")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hoop/internal/baseline/lsm.(*Scheme).TxAbort":                                                              "baseline.lsm",
		"hoop/internal/u64map.(*Map[go.shape.struct {}]).Ref":                                                       "u64map",
		"hoop/internal/u64map.(*Map[go.shape.struct { hoop/internal/hoop.writer hoop/internal/persist.TxID }]).Get": "u64map",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                                              "runtime",
		"runtime.mallocgc":                         "runtime",
		"hoop/internal/cache.(*level).lookup":      "cache",
		"hoop/internal/cc/cctest.Run":              "cc",
		"main.(*kvInst).run.func1":                 "bench",
		"slices.partitionOrdered[go.shape.uint64]": "stdlib",
		"encoding/json.(*decodeState).object":      "stdlib",
		"hoop/internal/clihelp.Parse":              "stdlib",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseSeconds(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "50ms": 0.05, "3.57s": 3.57, "1.5mins": 90, "250us": 250e-6} {
		got, err := parseSeconds(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseSeconds("12%"); err == nil {
		t.Error("parseSeconds accepted a percentage")
	}
}
