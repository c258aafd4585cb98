package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"hoop/internal/engine"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/workload"
)

// WearReport summarizes write wear across the OOP region's data blocks
// after a sustained run — evidence for §III-D's claim that round-robin
// block and slice allocation achieves uniform aging.
type WearReport struct {
	BucketsTouched int
	MinBytes       int64
	MaxBytes       int64
	MeanBytes      float64
	// CV is the coefficient of variation (stddev/mean) over touched
	// 1 MB buckets; uniform wear means a small CV.
	CV float64
	// HomeOOPRatio compares write bytes landing in the home region vs
	// the OOP region (HOOP shifts the write burden to the wear-leveled
	// log).
	HomeOOPRatio float64
}

// Wear runs a write-heavy workload under HOOP long enough for the OOP
// region to cycle through its blocks several times, then summarizes the
// device's wear counters.
func Wear(opts Options) (WearReport, error) {
	return WearOn(opts, engine.SchemeHOOP)
}

// WearOn runs the wear experiment on the named scheme. The scheme must
// implement persist.Quiescer so its deferred migration traffic lands inside
// the measured region before the wear counters are read.
func WearOn(opts Options, scheme string) (WearReport, error) {
	// Enough transactions that slice allocation cycles through many 2 MB
	// blocks (each transaction writes ~200 slice bytes).
	txs := 400000
	if opts.Quick {
		txs = 100000
	}
	mut := func(c *engine.Config) {
		// A small region so blocks recycle many times within the run.
		c.OOPBytes = 96 << 20
		c.Hoop.CommitLogBytes = 1 << 20
		c.Hoop.GCPeriod = 500 * sim.Microsecond
	}
	cache, err := opts.ensureCache()
	if err != nil {
		return WearReport{}, err
	}
	key := ""
	if cache != nil {
		key = cacheKey(kindWear, scheme, mut, fmt.Sprintf("workload=hashmap\nseed=%d\ntxs=%d\nopts=%+v", opts.Seed, txs, opts.WL))
	}
	if key != "" {
		if rep, ok := cacheLoad[WearReport](cache, kindWear, key); ok {
			return rep, nil
		}
	}
	rep, err := runWear(scheme, mut, txs, opts)
	if err != nil || key == "" {
		return rep, err
	}
	return rep, cacheStore(cache, kindWear, key, rep)
}

// runWear executes the wear experiment and summarizes the device's wear
// counters over the OOP region.
func runWear(scheme string, mut func(*engine.Config), txs int, opts Options) (WearReport, error) {
	sys, err := buildSystem(scheme, mut)
	if err != nil {
		return WearReport{}, err
	}
	if _, ok := sys.Scheme().(persist.Quiescer); !ok {
		return WearReport{}, fmt.Errorf("harness: wear experiment needs a scheme with background migration; %s implements no persist.Quiescer", scheme)
	}
	runners := workload.MustBuild("hashmap", opts.WL).Runners(sys, opts.Seed+17)
	sys.ResetMemoryQueues()
	sys.Run(runners, txs)
	quiesce(sys)

	layout := sys.Layout()
	// The data blocks start past the watermark+commit-log head; measuring
	// the whole OOP region is close enough because the head is a handful
	// of buckets.
	dev := sys.Device()
	buckets, minW, maxW, total := dev.WearInRegion(layout.OOP)
	var rep WearReport
	rep.BucketsTouched = buckets
	rep.MinBytes, rep.MaxBytes = minW, maxW
	if buckets > 0 {
		rep.MeanBytes = float64(total) / float64(buckets)
	}
	// Coefficient of variation over the touched buckets.
	var vals []float64
	for b, w := range dev.WearBuckets() {
		base := mem.PAddr(b) << 20
		if layout.OOP.Contains(base) {
			vals = append(vals, float64(w))
		}
	}
	sort.Float64s(vals)
	if len(vals) > 1 && rep.MeanBytes > 0 {
		var ss float64
		for _, v := range vals {
			d := v - rep.MeanBytes
			ss += d * d
		}
		rep.CV = math.Sqrt(ss/float64(len(vals))) / rep.MeanBytes
	}
	_, _, _, homeTotal := dev.WearInRegion(layout.Home)
	if total > 0 {
		rep.HomeOOPRatio = float64(homeTotal) / float64(total)
	}
	return rep, nil
}

// RenderWear writes the wear experiment's summary.
func RenderWear(w io.Writer, rep WearReport) {
	fmt.Fprintln(w, "Uniform aging of the OOP region (§III-D round-robin allocation):")
	fmt.Fprintf(w, "  1MB buckets written: %d\n", rep.BucketsTouched)
	fmt.Fprintf(w, "  bytes per bucket:    min %d / mean %.0f / max %d\n",
		rep.MinBytes, rep.MeanBytes, rep.MaxBytes)
	fmt.Fprintf(w, "  coefficient of variation: %.2f (smaller = more uniform)\n", rep.CV)
	fmt.Fprintf(w, "  home-region writes / OOP-region writes: %.2f\n", rep.HomeOOPRatio)
}
