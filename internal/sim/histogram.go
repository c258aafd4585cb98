package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// numBuckets is the bucket count: one per power of two of nanoseconds,
// covering the full Duration range.
const numBuckets = 64

// Histogram accumulates durations into logarithmic buckets (powers of two
// of nanoseconds) for cheap, allocation-free percentile estimates — the
// engine records every transaction's critical-path latency here.
type Histogram struct {
	buckets [numBuckets]int64
	count   int64
	sum     Duration
	min     Duration
	max     Duration
}

func bucketOf(d Duration) int {
	ns := int64(d / Nanosecond)
	if ns < 1 {
		return 0
	}
	b := 64 - bits.LeadingZeros64(uint64(ns))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the mean observation.
func (h *Histogram) Mean() Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / Duration(h.count)
}

func (h *Histogram) Max() Duration { return h.max }

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// boundaries: the result is the upper bound of the bucket containing the
// quantile, i.e. accurate to within a factor of two — ample for latency
// tails.
func (h *Histogram) Quantile(q float64) Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen >= target {
			upper := Duration(1) << uint(b) * Nanosecond
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for b, c := range other.buckets {
		h.buckets[b] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Since returns the distribution of the observations recorded after the
// earlier copy `before` was taken from the same histogram: bucket counts,
// count, and sum subtract exactly, so Count/Mean/Quantile describe the
// window precisely. Min and Max cannot be reconstructed per-window from
// cumulative extremes; the result carries the cumulative ones, which
// bound the window's. Harness windows use this to report per-measurement
// latency percentiles off the engine's cumulative histogram.
func (h *Histogram) Since(before Histogram) Histogram {
	out := *h
	for b := range out.buckets {
		out.buckets[b] -= before.buckets[b]
	}
	out.count -= before.count
	out.sum -= before.sum
	if out.count == 0 {
		return Histogram{}
	}
	return out
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram(empty)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v min=%v p50=%v p90=%v p99=%v max=%v",
		h.count, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.max)
	return b.String()
}
