package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRuns is how many times a reusable workload is set up before the
	// timed window; setup_s is the median, so one slow set-up does not
	// move it.
	setupRuns = 5
	// minPhaseUnits is the fewest timed units a phase runs, however long
	// they take, so every median has samples behind it.
	minPhaseUnits = 3
)

// sample is one timed unit's host cost.
type sample struct {
	wall, cpu time.Duration
	// peakMB is the process's peak resident set while the unit ran,
	// opening included for a fresh workload.
	peakMB float64
}

// runResult is everything one benchmark run measured.
type runResult struct {
	// setup holds one duration per set-up: opening an instance plus, for a
	// reusable workload, one untimed warm-up unit.
	setup []time.Duration
	// untraced and traced hold the timed units of each phase.
	untraced, traced []sample
	// ref is the first unit's output; every later unit must reproduce it.
	ref output
	// tracedOut holds the traced units' outputs.
	tracedOut []output
	tr        tracer
}

// runner drives one workload through set-up, the timed window and
// verification.
type runner struct {
	w      *workloadDef
	cfg    config
	ck     *checker
	res    runResult
	hasRef bool
	// log receives one diagnostic line per timed unit.
	log io.Writer
}

// observe checks a unit's output against the reference output.
func (r *runner) observe(out output) {
	if !r.hasRef {
		r.res.ref, r.hasRef = out, true
		return
	}
	r.ck.check(out.text == r.res.ref.text, "%s: unit output %s differs from the first unit's %s",
		r.w.name, digest(out.text)[:12], digest(r.res.ref.text)[:12])
}

// setUp opens one instance and times it as one set-up. A reusable
// instance is ready once one untimed unit has run on it, so that unit
// counts as set-up.
func (r *runner) setUp() (instance, error) {
	start := time.Now()
	inst, err := r.w.open(r.cfg, r.ck)
	if err != nil {
		return nil, err
	}
	if !r.w.fresh {
		if err := inst.run(nil); err != nil {
			inst.close()
			return nil, err
		}
		r.observe(inst.report(r.ck))
	}
	d := time.Since(start)
	fmt.Fprintf(r.log, "setup %.6fs\n", d.Seconds())
	r.res.setup = append(r.res.setup, d)
	return inst, nil
}

// measure runs workload w for window. With prof non-nil the window is
// split in halves: the first runs untraced, the second under the CPU
// profiler, which writes to prof. Each timed unit's costs go to log.
func measure(w *workloadDef, cfg config, window time.Duration, prof io.Writer, ck *checker, log io.Writer) (*runResult, error) {
	r := &runner{w: w, cfg: cfg, ck: ck, log: log}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	if !w.fresh {
		for i := 0; i < setupRuns; i++ {
			if inst != nil {
				inst.close()
			}
			var err error
			if inst, err = r.setUp(); err != nil {
				return nil, err
			}
		}
	}

	phases := []bool{false}
	phaseLen := window
	if prof != nil {
		phases = []bool{false, true}
		phaseLen = window / 2
	}
	for _, traced := range phases {
		var tr *tracer
		if traced {
			tr = &r.res.tr
			if err := pprof.StartCPUProfile(prof); err != nil {
				return nil, err
			}
		}
		err := r.phase(&inst, phaseLen, tr)
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
	}
	if w.verify != nil {
		if err := w.verify(cfg, ck, r.res.ref); err != nil {
			return nil, fmt.Errorf("%s: verify: %w", w.name, err)
		}
	}
	return &r.res, nil
}

// phase runs timed units for at least length and minPhaseUnits units.
func (r *runner) phase(inst *instance, length time.Duration, tr *tracer) error {
	start := time.Now()
	for n := 0; n < minPhaseUnits || time.Since(start) < length; n++ {
		// Each unit starts from a collected heap returned to the OS, so it
		// pays for its own garbage only, a fresh instance is not set up
		// beside the last one's garbage, and the peak resident set is the
		// unit's own.
		if err := betweenUnits(resetPeakRSS); err != nil {
			return err
		}
		// A fresh instance is opened outside betweenUnits: goroutines it
		// starts, such as service shards, would inherit the label.
		if *inst == nil {
			var err error
			if *inst, err = r.setUp(); err != nil {
				return err
			}
		}
		wall, cpu := time.Now(), cpuTime()
		err := (*inst).run(tr)
		s := sample{wall: time.Since(wall), cpu: cpuTime() - cpu}
		if err != nil {
			return fmt.Errorf("%s: %w", r.w.name, err)
		}
		if err := betweenUnits(func() error { return r.record(inst, s, tr) }); err != nil {
			return err
		}
	}
	return nil
}

// record reads, checks and keeps the unit that just ran, and closes a
// fresh instance.
func (r *runner) record(inst *instance, s sample, tr *tracer) (err error) {
	if s.peakMB, err = peakRSSMB(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "unit traced=%t wall %.6fs cpu %.6fs peak %.1fMB\n", tr != nil, s.wall.Seconds(), s.cpu.Seconds(), s.peakMB)
	out := (*inst).report(r.ck)
	r.observe(out)
	if tr != nil {
		r.res.traced = append(r.res.traced, s)
		r.res.tracedOut = append(r.res.tracedOut, out)
	} else {
		r.res.untraced = append(r.res.untraced, s)
	}
	if r.w.fresh {
		(*inst).close()
		*inst = nil
	}
	return nil
}

// The benchmark's own work between timed units runs under this profiler
// label, and the folded profile leaves it out (see pprofTop).
const labelKey, betweenUnitsLabel = "bench", "between-units"

// betweenUnits runs f under betweenUnitsLabel.
func betweenUnits(f func() error) (err error) {
	pprof.Do(context.Background(), pprof.Labels(labelKey, betweenUnitsLabel), func(context.Context) { err = f() })
	return err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects the heap, returns its free pages to the OS, and
// restarts the kernel's record of the process's peak resident set
// (Linux's clear_refs "5").
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set in MB since the last
// resetPeakRSS, the VmHWM line of /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of vs
// by the method of Python's statistics.quantiles(vs, n=4) (the exclusive
// method), so spreads read the same as in tools built on it.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med = median(s)
	ld := len(s)
	if ld < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
