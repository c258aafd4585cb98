package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must be all-zero")
	}
	h.Observe(100 * Nanosecond)
	h.Observe(200 * Nanosecond)
	h.Observe(300 * Nanosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 200*Nanosecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 100*Nanosecond || h.Max() != 300*Nanosecond {
		t.Fatalf("min/max %v %v", h.Min(), h.Max())
	}
	if h.String() == "" || h.String() == "histogram(empty)" {
		t.Fatal("String")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(Duration(i) * Microsecond)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	// Log buckets are accurate to a factor of two.
	if p50 < 250*Microsecond || p50 > 1100*Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < p50 {
		t.Fatal("p99 < p50")
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile extremes")
	}
}

func TestHistogramQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		for _, v := range raw {
			h.Observe(Duration(v%10_000_000) * Nanosecond)
		}
		if h.Count() == 0 {
			return true
		}
		prev := Duration(-1)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(0.99) <= h.Max() && h.Quantile(0.1) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(1 * Microsecond)
	b.Observe(3 * Microsecond)
	b.Observe(5 * Microsecond)
	a.Merge(&b)
	if a.Count() != 3 || a.Min() != 1*Microsecond || a.Max() != 5*Microsecond {
		t.Fatalf("merge: %s", a.String())
	}
	if a.Mean() != 3*Microsecond {
		t.Fatalf("merged mean %v", a.Mean())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 3 {
		t.Fatal("merging empty changed the histogram")
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset")
	}
}

// TestHistogramMergeEquivalence is the satellite property: splitting an
// observation stream across k histograms and merging them back is exactly
// equivalent — full struct equality, not just matching quantiles — to
// observing everything in one histogram. This is what makes per-shard
// histograms safe to fold into fleet-wide percentiles.
func TestHistogramMergeEquivalence(t *testing.T) {
	prop := func(raw []int64, k uint8) bool {
		parts := int(k%7) + 1
		var single Histogram
		shards := make([]Histogram, parts)
		for i, v := range raw {
			d := Duration(v)
			single.Observe(d)
			shards[i%parts].Observe(d)
		}
		var merged Histogram
		for i := range shards {
			merged.Merge(&shards[i])
		}
		return merged == single
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSince(t *testing.T) {
	var h Histogram
	h.Observe(1 * Microsecond)
	h.Observe(2 * Microsecond)
	before := h
	h.Observe(10 * Microsecond)
	h.Observe(20 * Microsecond)
	w := h.Since(before)
	if w.Count() != 2 {
		t.Fatalf("window count = %d", w.Count())
	}
	if w.Mean() != 15*Microsecond {
		t.Fatalf("window mean = %v", w.Mean())
	}
	if p99 := w.Quantile(0.99); p99 < 10*Microsecond {
		t.Fatalf("window p99 = %v excludes the window's observations", p99)
	}
	if empty := h.Since(h); empty != (Histogram{}) {
		t.Fatal("Since(self) must be the zero histogram")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatal("negative observations clamp to zero")
	}
}

func TestHistogramZeroBucket(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	// Sub-nanosecond observations land in bucket 0 alongside zero.
	h.Observe(Picosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != h.Max() {
			// All mass is in bucket 0, whose upper bound (1 ns) clamps to
			// the observed max.
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, h.Max())
		}
	}
	if h.Min() != 0 || h.Max() != Picosecond {
		t.Fatalf("min/max %v %v", h.Min(), h.Max())
	}
}

func TestHistogramTopBucketSaturates(t *testing.T) {
	var h Histogram
	huge := Duration(math.MaxInt64)
	h.Observe(huge)
	h.Observe(huge - Nanosecond)
	// Duration is picosecond-based, so the largest observable value lands
	// well below the defensive numBuckets clamp — but both observations
	// must share the highest reachable bucket, and bucketOf must stay in
	// range even for MaxInt64.
	b := bucketOf(huge)
	if b < 0 || b >= numBuckets {
		t.Fatalf("bucketOf(MaxInt64) = %d out of range", b)
	}
	if h.buckets[b] != 2 {
		t.Fatalf("bucket %d holds %d, want 2", b, h.buckets[b])
	}
	// The bucket's nominal upper bound (2^b ns) overflows int64 here;
	// Quantile must still return a value inside the observed range.
	if got := h.Quantile(0.5); got < h.Min() || got > h.Max() {
		t.Fatalf("Quantile(0.5) = %v outside [min=%v, max=%v]", got, h.Min(), h.Max())
	}
}

func TestHistogramQuantileClampsToMin(t *testing.T) {
	var h Histogram
	// 1000 ns lands in the bucket with upper bound 1024 ns, but a lower
	// bound of 512 ns; the estimate must never fall below the observed min.
	h.Observe(1000 * Nanosecond)
	if got := h.Quantile(0.5); got != 1000*Nanosecond {
		t.Fatalf("Quantile(0.5) = %v, want clamped to max %v", got, 1000*Nanosecond)
	}
	h.Observe(1010 * Nanosecond)
	if got := h.Quantile(0.01); got < h.Min() || got > h.Max() {
		t.Fatalf("Quantile(0.01) = %v outside [min=%v, max=%v]", got, h.Min(), h.Max())
	}
}

// Min and Max report the extremes.
func (h *Histogram) Min() Duration { return h.min }

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
