package main

import (
	"strings"
	"testing"
)

func file(prims map[string]PrimitiveResult) *File { return &File{Primitives: prims} }

// TestRegressions drives the gate on synthetic files; no benchmark runs.
func TestRegressions(t *testing.T) {
	base := file(map[string]PrimitiveResult{
		"a": {NsPerOp: 100},
		"b": {NsPerOp: 10, AllocsPerOp: 1},
	})
	for _, tc := range []struct {
		name string
		cur  map[string]PrimitiveResult
		want []string // substrings of each regression, in order
	}{
		{"within 5% passes", map[string]PrimitiveResult{
			"a": {NsPerOp: 104.9}, "b": {NsPerOp: 10, AllocsPerOp: 1},
		}, nil},
		{"faster and fewer allocs pass", map[string]PrimitiveResult{
			"a": {NsPerOp: 50}, "b": {NsPerOp: 5},
		}, nil},
		{"just over 5% slower fails", map[string]PrimitiveResult{
			"a": {NsPerOp: 105.1}, "b": {NsPerOp: 10, AllocsPerOp: 1},
		}, []string{"a: 5.1% slower"}},
		{"one extra alloc fails", map[string]PrimitiveResult{
			"a": {NsPerOp: 100}, "b": {NsPerOp: 10, AllocsPerOp: 2},
		}, []string{"b: 2 allocs/op, baseline has 1"}},
		{"missing baseline primitive fails", map[string]PrimitiveResult{
			"b": {NsPerOp: 10, AllocsPerOp: 1},
		}, []string{"a: in the baseline but not measured"}},
		{"new unbaselined primitive passes", map[string]PrimitiveResult{
			"a": {NsPerOp: 100}, "b": {NsPerOp: 10, AllocsPerOp: 1}, "c": {NsPerOp: 1e6, AllocsPerOp: 9},
		}, nil},
		{"ordered by name", map[string]PrimitiveResult{
			"b": {NsPerOp: 20, AllocsPerOp: 3},
		}, []string{"a: in the baseline", "b: 100.0% slower", "b: 3 allocs/op"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := regressions(file(tc.cur), base, 0.05)
			if len(got) != len(tc.want) {
				t.Fatalf("regressions = %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("regression %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
