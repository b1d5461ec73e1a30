package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/scidata/errprop/internal/dataset"
)

// TestWorkloadsSmoke runs every workload briefly and checks that the
// run passes its checks and reports every declared metric in its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := execute(options{Workload: w.name, Seed: 1, Seconds: 0.2, WorkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			assertPassed(t, rep)
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric
// and writes its spans.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	rep, err := execute(options{Workload: "interactive", Seed: 1, Seconds: 0.4, Trace: true, Spans: spans, WorkDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertPassed(t, rep)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	parents := 0
	for _, s := range doc.Spans {
		if s.Parent != 0 {
			parents++
		}
	}
	if len(doc.Spans) == 0 || parents == 0 {
		t.Fatalf("spans file has %d spans, %d of them linked to a parent", len(doc.Spans), parents)
	}
}

// assertPassed fails unless every output check passed and the summary
// carries every declared metric in its unit. The latency limit is left
// out: it depends on the host's speed (and the race detector's).
func assertPassed(t *testing.T, rep *report) {
	t.Helper()
	for _, c := range rep.Checks {
		if !c.OK && c.Name != "closed_loop_p99_within_limit" {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if rep.Attempted == 0 || rep.Failed != 0 {
		t.Errorf("attempted=%d failed=%d", rep.Attempted, rep.Failed)
	}
	sum, err := rep.summary()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rep.defs()); len(sum.Metrics) != want {
		t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), want)
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the runner's
// workload and metric tables.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, runner has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, runner has %+v", spec.PerLayer, perLayer)
	}
}

// TestInputsFollowSeed checks that a seed fixes every workload's request
// bodies and their order (the open-loop timing is a constant), and the
// scored field, and that another seed changes them.
func TestInputsFollowSeed(t *testing.T) {
	h2, euro, err := buildModels(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]func(seed int64) (uint32, error){
		"interactive": func(seed int64) (uint32, error) {
			tr, err := onlineTraffic(seed, 500, h2, euro, false)
			if err != nil {
				return 0, err
			}
			return tr.digest(), nil
		},
		"fleet": func(seed int64) (uint32, error) {
			tr, err := onlineTraffic(seed, 500, h2, euro, true)
			if err != nil {
				return 0, err
			}
			return tr.digest(), nil
		},
		"bulk-blob": func(seed int64) (uint32, error) {
			tr, err := blobTraffic(seed, 16, h2)
			if err != nil {
				return 0, err
			}
			return tr.digest(), nil
		},
		"score": func(seed int64) (uint32, error) {
			var b []byte
			for _, v := range dataset.H2Combustion(scoreGrid, seed).FieldData() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			return crc(b), nil
		},
	}
	for name, digest := range inputs {
		a, err := digest(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := digest(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := digest(2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// TestRunRefusesBadFlags checks that a run that cannot be carried out
// prints nothing on standard output and exits 2.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "interactive", "-trace", "2"},
		{"-workload", "interactive", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with %d bytes of output, want 2 and none", args, code, stdout.Len())
		}
	}
}
