package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is the state of one run: the served models, the tracer and
// everything measured and checked so far.
type env struct {
	opts     options
	dir      string
	h2, euro *model
	tr       *tracer // nil unless the run is traced

	vals              map[string]metric
	checks            []check
	attempted, failed int64
	// boundUse is the largest measured-error/certified-bound ratio of
	// any checked sample.
	boundUse float64
}

func newEnv(o options, dir string) (*env, error) {
	h2, euro, err := buildModels(dir)
	if err != nil {
		return nil, err
	}
	e := &env{opts: o, dir: dir, h2: h2, euro: euro, vals: map[string]metric{}}
	if o.Trace {
		e.tr = newTracer()
	}
	return e, nil
}

// set books a measured value. A NaN or infinite value (a statistic of
// an empty sample, or a latency of a failed request) is left out, so a
// declared metric that ends up without a value stops the run.
func (e *env) set(name, unit string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		e.vals[name] = metric{Value: v, Unit: unit}
	}
}

func (e *env) check(name string, ok bool, detail string) {
	e.checks = append(e.checks, check{Name: name, OK: ok, Detail: detail})
}

// countFailures books failed requests: no 200, an output other than the
// reference engine's, or an output outside its certified bound.
func (e *env) countFailures(non200, wrong, unsound int64, details []string) {
	e.failed += non200 + wrong + unsound
	e.set("errors.non200", "count", float64(non200))
	e.set("errors.wrong_outputs", "count", float64(wrong))
	e.set("errors.soundness_violations", "count", float64(unsound))
	e.check("no_failed_requests", non200+wrong+unsound == 0, strings.Join(details, "; "))
}

// finish books the whole-run results every workload reports.
func (e *env) finish() {
	e.set("core.bound_use", "ratio", e.boundUse)
	e.check("bound_use_at_most_1", e.boundUse <= 1, fmt.Sprintf("largest |dy|_2 / certified bound = %.4g", e.boundUse))
	if e.attempted > 0 {
		e.set("error_rate", "fraction", float64(e.failed)/float64(e.attempted))
	}
}

// phases lists the measured phases of the run: one untraced phase, or
// with --trace 1 an untraced and a traced half of equal length.
func (e *env) phases() []bool {
	if e.opts.Trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// phaseDur is the length of one measured phase.
func (e *env) phaseDur() time.Duration {
	d := time.Duration(e.opts.Seconds * float64(time.Second))
	return d / time.Duration(len(e.phases()))
}

// usage is a snapshot of the process's CPU time and allocation
// counters.
type usage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, alloc: ms.TotalAlloc, gcs: ms.NumGC}, nil
}

// setRuntime books the process cost of a phase per sample it completed.
// The load generator runs in the same process, so its cost is included.
func (e *env) setRuntime(before, after usage, samples int) {
	n := float64(max(samples, 1))
	e.set("runtime.cpu_us_per_sample", "us", us(after.cpu-before.cpu)/n)
	e.set("runtime.alloc_bytes_per_sample", "bytes", float64(after.alloc-before.alloc)/n)
	e.set("runtime.gc_per_1k_samples", "count", 1000*float64(after.gcs-before.gcs)/n)
}
