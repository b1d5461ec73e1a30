package score

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/hpcio"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func testNet(t *testing.T, features int) *nn.Network {
	t.Helper()
	net, err := nn.MLPSpec("score-test", []int{features, 16, 3}, nn.ActTanh, true).Build(11)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// scoreNet scores a spec model the way the score CLI does: build the
// artifact at format f in memory, then take the artifact path.
func scoreNet(t *testing.T, net *nn.Network, f numfmt.Format, man *Manifest, cfg Config) (*Result, error) {
	t.Helper()
	art, err := artifact.Build(net, f)
	if err != nil {
		t.Fatal(err)
	}
	return ScoreArtifact(art, man, cfg)
}

// bitsEqual compares float slices bit for bit (DeepEqual would treat
// +0/-0 as equal and NaNs as unequal; the scorer must produce the exact
// same bits).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func assertSameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Agg, want.Agg) {
		t.Fatalf("%s: aggregates differ:\n got %+v\nwant %+v", label, got.Agg, want.Agg)
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("%s: chunk counts differ: %d vs %d", label, len(got.Chunks), len(want.Chunks))
	}
	for i := range got.Chunks {
		g, w := got.Chunks[i], want.Chunks[i]
		if !bitsEqual(g.Sum, w.Sum) || !bitsEqual(g.Min, w.Min) || !bitsEqual(g.Max, w.Max) {
			t.Fatalf("%s: chunk %d QoI differs", label, i)
		}
		g.Sum, g.Min, g.Max, w.Sum, w.Min, w.Max = nil, nil, nil, nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: chunk %d metadata differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestScoreWorkerInvariance is the core determinism contract: per-chunk
// results and the aggregate are bit-identical for any worker count, for
// every codec.
func TestScoreWorkerInvariance(t *testing.T) {
	const features = 6
	net := testNet(t, features)
	for _, codec := range []string{"sz", "zfp", "mgard"} {
		t.Run(codec, func(t *testing.T) {
			dir, man := writeTestDataset(t, codec, 1e-3, features, 200, 32)
			ref, err := scoreNet(t, net, numfmt.FP16, man, Config{QoIBudget: 10, Workers: 1, Batch: 16, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Agg.Samples != 200 || ref.Agg.Chunks != int64(len(man.Chunks)) {
				t.Fatalf("aggregate counts off: %+v", ref.Agg)
			}
			for _, workers := range []int{2, 5} {
				got, err := scoreNet(t, net, numfmt.FP16, man, Config{QoIBudget: 10, Workers: workers, Batch: 16, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, got, ref, codec)
			}
		})
	}
}

// TestScoreMatchesDirectForward pins the scored QoI to the legacy
// Network.Forward path: the engine is bit-identical to it, and the
// scorer's reduction is plain sequential summation in sample order, so
// recomputing a chunk's sums by hand must agree exactly.
func TestScoreMatchesDirectForward(t *testing.T) {
	const features, batch = 5, 16
	net := testNet(t, features)
	dir, man := writeTestDataset(t, "sz", 1e-3, features, 96, 48)
	res, err := scoreNet(t, net, numfmt.FP32, man, Config{Workers: 3, Batch: batch, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range man.Chunks {
		raw, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			t.Fatal(err)
		}
		data, err := DecodeChunk(man, c, raw)
		if err != nil {
			t.Fatal(err)
		}
		outDim := len(res.Chunks[i].Sum)
		sum := make([]float64, outDim)
		for lo := 0; lo < c.Samples; lo += batch {
			hi := lo + batch
			if hi > c.Samples {
				hi = c.Samples
			}
			xb := tensor.NewMatrix(features, hi-lo)
			for f := 0; f < features; f++ {
				copy(xb.Data[f*(hi-lo):(f+1)*(hi-lo)], data[f*c.Samples+lo:f*c.Samples+hi])
			}
			out := net.Forward(xb, false)
			for f := 0; f < out.Rows; f++ {
				for _, v := range out.Data[f*(hi-lo) : (f+1)*(hi-lo)] {
					sum[f] += v
				}
			}
		}
		if !bitsEqual(sum, res.Chunks[i].Sum) {
			t.Fatalf("chunk %d: scored sum %v != direct forward sum %v", i, res.Chunks[i].Sum, sum)
		}
	}
}

// TestScoreCertifiedAccounting checks the Inequality (3) bookkeeping:
// the per-chunk bound composes the quantization bound with the
// quantized-Lipschitz amplification of the chunk's achieved codec error,
// and budget admission agrees with InputToleranceFor's inversion.
func TestScoreCertifiedAccounting(t *testing.T) {
	const features = 6
	net := testNet(t, features)
	dir, man := writeTestDataset(t, "sz", 1e-3, features, 128, 32)

	res, err := scoreNet(t, net, numfmt.INT8, man, Config{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuantBound <= 0 {
		t.Fatalf("INT8 quantization bound %g, want positive", res.QuantBound)
	}
	if !math.IsInf(res.InputTolL2, 1) {
		t.Fatalf("no budget: InputTolL2 %g, want +Inf", res.InputTolL2)
	}
	for i, cr := range res.Chunks {
		if cr.AchievedLinf != man.Chunks[i].AchievedLinf {
			t.Fatalf("chunk %d achieved error not carried from manifest", i)
		}
		if cr.Bound < cr.QuantBound {
			t.Fatalf("chunk %d bound %g below quant bound %g", i, cr.Bound, cr.QuantBound)
		}
		if cr.InputL2 < cr.AchievedLinf {
			t.Fatalf("chunk %d input L2 %g below pointwise error %g", i, cr.InputL2, cr.AchievedLinf)
		}
		if !cr.WithinBudget {
			t.Fatalf("chunk %d flagged over budget with no budget set", i)
		}
	}

	// A budget below the quantization bound admits nothing.
	tight, err := scoreNet(t, net, numfmt.INT8, man, Config{QoIBudget: res.QuantBound / 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if tight.InputTolL2 != 0 {
		t.Fatalf("tight budget: InputTolL2 %g, want 0", tight.InputTolL2)
	}
	if tight.Agg.OverBudget != int64(len(man.Chunks)) {
		t.Fatalf("tight budget: %d over budget, want all %d", tight.Agg.OverBudget, len(man.Chunks))
	}

	// A generous budget admits everything, and admission matches the
	// inverted bound.
	loose, err := scoreNet(t, net, numfmt.INT8, man, Config{QoIBudget: 2 * tight.Agg.MaxBound, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Agg.OverBudget != 0 {
		t.Fatalf("loose budget: %d chunks over budget, want 0", loose.Agg.OverBudget)
	}
	for i, cr := range loose.Chunks {
		if cr.WithinBudget != (cr.InputL2 <= loose.InputTolL2) {
			t.Fatalf("chunk %d: WithinBudget=%v disagrees with InputToleranceFor admission (input %g, tol %g)",
				i, cr.WithinBudget, cr.InputL2, loose.InputTolL2)
		}
	}

	// Aggregate bound accounting: MeanBound is the sample-weighted mean.
	var wsum float64
	for _, cr := range loose.Chunks {
		wsum += float64(cr.Samples) * cr.Bound
	}
	if got, want := loose.Agg.MeanBound(), wsum/float64(loose.Agg.Samples); got != want {
		t.Fatalf("MeanBound %g, want %g", got, want)
	}
}

// TestScoreCorruptChunk drives the detect-or-skip contract: damage is
// fatal by default and a reported skip under SkipCorrupt — never folded
// into the aggregate.
func TestScoreCorruptChunk(t *testing.T) {
	const features = 4
	net := testNet(t, features)
	dir, man := writeTestDataset(t, "sz", 1e-3, features, 160, 32)
	victim := man.Chunks[2]
	path := filepath.Join(dir, victim.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x20
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := scoreNet(t, net, numfmt.FP32, man, Config{Dir: dir, Workers: 2}); !integrity.IsIntegrityError(err) {
		t.Fatalf("corrupt chunk without SkipCorrupt: got %v, want integrity error", err)
	}

	res, err := scoreNet(t, net, numfmt.FP32, man, Config{Dir: dir, Workers: 2, SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Skipped != 1 || res.Agg.Chunks != int64(len(man.Chunks)) {
		t.Fatalf("skip accounting: %+v", res.Agg)
	}
	skipped := res.Chunks[2]
	if !skipped.Skipped || skipped.Samples != 0 || skipped.Sum != nil {
		t.Fatalf("skipped chunk carries data: %+v", skipped)
	}
	if !strings.Contains(skipped.Detail, "decode") {
		t.Fatalf("skip detail %q does not name the failing stage", skipped.Detail)
	}
	if res.Agg.Samples != int64(160-victim.Samples) {
		t.Fatalf("aggregate samples %d include the skipped chunk", res.Agg.Samples)
	}

	// A missing chunk file is detected the same way.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	res2, err := scoreNet(t, net, numfmt.FP32, man, Config{Dir: dir, Workers: 2, SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Agg.Skipped != 1 || !strings.Contains(res2.Chunks[2].Detail, "read") {
		t.Fatalf("missing chunk not reported: %+v", res2.Chunks[2])
	}
}

// TestScoreTransientFaultBillingDeterministic checks that simulated
// storage faults bill per chunk from a schedule-independent stream:
// retries and read times must not depend on the worker count.
func TestScoreTransientFaultBillingDeterministic(t *testing.T) {
	const features = 4
	net := testNet(t, features)
	dir, man := writeTestDataset(t, "zfp", 1e-2, features, 160, 16)
	mkStorage := func() *hpcio.Storage {
		st := hpcio.DefaultStorage()
		st.Faults = &hpcio.TransientFaults{Stream: detrand.New(99), FailProb: 0.4, MaxRetries: 8}
		return st
	}
	ref, err := scoreNet(t, net, numfmt.FP32, man, Config{Workers: 1, Dir: dir, Storage: mkStorage()})
	if err != nil {
		t.Fatal(err)
	}
	var totalRetries int64
	for _, cr := range ref.Chunks {
		totalRetries += int64(cr.Retries)
	}
	if totalRetries == 0 {
		t.Fatal("fault profile produced no retries; test is vacuous")
	}
	got, err := scoreNet(t, net, numfmt.FP32, man, Config{Workers: 4, Dir: dir, Storage: mkStorage()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, ref, "faulted")
}

// TestForwardChunkAllocs asserts the steady-state allocation budget of
// the forward stage: with a warm worker state, streaming a chunk through
// the engine allocates nothing.
func TestForwardChunkAllocs(t *testing.T) {
	const features, samples, batch = 6, 64, 16
	net := testNet(t, features)
	eng, err := nn.CompileInference(net, batch)
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkerState(eng, features, batch)
	data := smoothField(features, samples)
	sum := make([]float64, eng.OutputDim())
	min := make([]float64, eng.OutputDim())
	max := make([]float64, eng.OutputDim())
	forwardChunk(ws, data, features, samples, batch, sum, min, max) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		forwardChunk(ws, data, features, samples, batch, sum, min, max)
	})
	if allocs != 0 {
		t.Fatalf("forward stage allocates %v objects per chunk in steady state, want 0", allocs)
	}
}

func TestScoreInputValidation(t *testing.T) {
	net := testNet(t, 4)
	if _, err := scoreNet(t, net, numfmt.FP32, &Manifest{}, Config{}); err == nil {
		t.Fatal("accepted empty manifest")
	}
	_, man := writeTestDataset(t, "sz", 1e-3, 6, 32, 16)
	if _, err := scoreNet(t, net, numfmt.FP32, man, Config{}); err == nil {
		t.Fatal("accepted feature/input dim mismatch")
	}
}
