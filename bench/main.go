// Command bench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed time on inputs generated from a seed,
// drives the repository's own layers in-process (artifact, serve,
// gateway, score, compress, nn), checks every output it receives, and
// prints a JSON report followed by a one-line JSON summary, the last
// line of standard output:
//
//	bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the summary carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// summary carries the per-layer metrics. The exit status is 0 only when
// every check passed. bench/README.md describes the workloads, the
// metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one metric of the summary line. BENCHMARK.json
// lists the same names, units and directions; bench_test.go keeps the
// two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"capacity_rps", "req/s", "higher"},
	{"samples_per_s", "samples/s", "higher"},
}

// perLayer are the single-layer metrics every workload reports with
// --trace 1. Each is measured from outside its layer: by timing calls
// into the layer's public functions on the run's own inputs, from the
// run's spans, or from process counters. Workload-specific layer
// numbers (handler spans, gateway hop, score stage times) go to the
// report's extra section instead, since the summary must carry the same
// metrics on every workload.
var perLayer = []metricDef{
	{"nn.forward_us.h2comb.b1", "us", "lower"},
	{"nn.forward_us.h2comb.b32", "us", "lower"},
	{"nn.forward_us.h2comb.b256", "us", "lower"},
	{"nn.forward_us.eurosat.b1", "us", "lower"},
	{"nn.gflops.h2comb.b256", "GFLOP/s", "higher"},
	{"compress.decode_ns_per_value.blob", "ns", "lower"},
	{"compress.decode_ns_per_value.chunk", "ns", "lower"},
	{"artifact.read_ms", "ms", "lower"},
	{"artifact.bind_us", "us", "lower"},
	{"core.plan_us", "us", "lower"},
	{"core.bound_use", "ratio", "higher"},
	{"path.wait_share", "ratio", "lower"},
	{"runtime.cpu_us_per_sample", "us", "lower"},
	{"runtime.alloc_bytes_per_sample", "bytes", "lower"},
	{"runtime.gc_per_1k_samples", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// workload is one traffic shape; README.md records why each exists.
type workload struct {
	name string
	run  func(*env) error
}

var workloads = []workload{
	{"interactive", func(e *env) error { return runOnline(e, false) }},
	{"bulk-blob", runBulkBlob},
	{"fleet", func(e *env) error { return runOnline(e, true) }},
	{"score-loose", func(e *env) error { return runScore(e, "sz", 1e-2) }},
	{"score-tight", func(e *env) error { return runScore(e, "mgard", 1e-4) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings of one run.
type options struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Spans is where a traced run writes its spans.
	Spans string `json:"spans,omitempty"`
	// WorkDir is the directory the run creates its temporary data under.
	WorkDir string `json:"-"`
}

// header is the shared run header every report starts with.
type header struct {
	options
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Timestamp  string `json:"timestamp"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is the full JSON document of a run.
type report struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the report and summary.
// It returns the process exit status: 0 when every check passed, 1 when
// a check failed, 2 when the run could not be carried out (no summary is
// printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.Seed, "seed", 1, "seed the run's inputs are generated from")
	fs.Float64Var(&o.Seconds, "seconds", 20, "measured time of the run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 splits the run into an untraced and a traced half and reports per-layer metrics")
	fs.StringVar(&o.Spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.Trace = trace == 1
	if o.Trace && o.Spans == "" {
		o.Spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.Workload, o.Seed))
	}
	o.WorkDir = ".bench_build"
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	sum, err := rep.summary()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "bench: writing report: %v\n", err)
		return 2
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding summary: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs one workload and assembles its report.
func execute(o options) (*report, error) {
	w, ok := findWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, workloadNames())
	}
	if !(o.Seconds > 0) || math.IsInf(o.Seconds, 0) {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.Seconds)
	}
	h := header{
		options:    o,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e, err := newEnv(o, dir)
	if err != nil {
		return nil, err
	}
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	e.finish()
	if o.Trace {
		if err := e.layerReplays(); err != nil {
			return nil, fmt.Errorf("%s: per-layer replays: %w", o.Workload, err)
		}
		if err := e.tr.write(o.Spans, o.Workload, o.Seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return e.report(h), nil
}

// report sorts the collected metrics into the summary's set and the
// rest.
func (e *env) report(h header) *report {
	rep := &report{
		Header:    h,
		Attempted: e.attempted,
		Failed:    e.failed,
		Checks:    e.checks,
		Metrics:   map[string]metric{},
		Extra:     map[string]metric{},
	}
	rep.Correct = e.attempted > 0 && e.failed == 0
	for _, c := range e.checks {
		rep.Correct = rep.Correct && c.OK
	}
	chosen := map[string]bool{}
	for _, d := range rep.defs() {
		chosen[d.Name] = true
	}
	for name, m := range e.vals {
		if chosen[name] {
			rep.Metrics[name] = m
		} else {
			rep.Extra[name] = m
		}
	}
	return rep
}

func (r *report) defs() []metricDef {
	if r.Header.Trace {
		return perLayer
	}
	return endToEnd
}

// summary builds the last line, refusing a run that missed a declared
// metric or reported it in another unit.
func (r *report) summary() (*summary, error) {
	s := &summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range r.defs() {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		s.Metrics[d.Name] = m
	}
	return s, nil
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout. The search stops at the working directory, so a benchmark
// copied into a directory of some other repository does not report that
// repository's commit.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
