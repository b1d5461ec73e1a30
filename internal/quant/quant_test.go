package quant

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func buildTestMLP(t testing.TB, psn bool) *nn.Network {
	t.Helper()
	spec := nn.MLPSpec("m", []int{9, 50, 50, 9}, nn.ActTanh, psn)
	net, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	// Nudge weights off the exact init grid so rounding is non-trivial.
	rng := rand.New(rand.NewSource(2))
	for _, p := range net.Params() {
		for i := range p.Data {
			p.Data[i] += rng.NormFloat64() * 0.01
		}
	}
	net.RefreshSigmas()
	return net
}

func randInput(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func TestQuantizePreservesShape(t *testing.T) {
	net := buildTestMLP(t, true)
	for _, f := range numfmt.AllFormats {
		q, err := Quantize(net, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if q.NumParams() == 0 || len(q.Layers) != len(net.Layers) {
			t.Fatalf("%v: quantized copy malformed", f)
		}
		x := randInput(rand.New(rand.NewSource(3)), 9, 4)
		out := q.Forward(x, false)
		if out.Rows != 9 || out.Cols != 4 {
			t.Fatalf("%v: output shape %dx%d", f, out.Rows, out.Cols)
		}
	}
}

func TestQuantizeWeightErrorWithinStep(t *testing.T) {
	net := buildTestMLP(t, true)
	for _, f := range []numfmt.Format{numfmt.TF32, numfmt.FP16, numfmt.BF16, numfmt.INT8} {
		q, err := Quantize(net, f)
		if err != nil {
			t.Fatal(err)
		}
		orig := net.LinearOps()
		quant := q.LinearOps()
		for l := range orig {
			maxErr := numfmt.MaxError(f, orig[l].Weights)
			for i := range orig[l].Weights {
				d := math.Abs(orig[l].Weights[i] - quant[l].Weights[i])
				if d > maxErr*(1+1e-9) {
					t.Fatalf("%v layer %d: weight moved %v > MaxError %v", f, l, d, maxErr)
				}
			}
		}
	}
}

func TestQuantizeErrorOrdering(t *testing.T) {
	// Output perturbation must grow as precision drops: fp32 <= tf32 <=
	// ... <= int8 (the monotonicity behind Figs. 5-6).
	net := buildTestMLP(t, true)
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, 9, 32)
	ref := net.Forward(x, false)
	var prev float64
	for _, f := range []numfmt.Format{numfmt.FP32, numfmt.TF32, numfmt.BF16, numfmt.INT8} {
		q, err := Quantize(net, f)
		if err != nil {
			t.Fatal(err)
		}
		out := q.Forward(x, false)
		diff := tensor.Vector(out.Data).Sub(tensor.Vector(ref.Data)).Norm2()
		if diff < prev*0.5 { // allow mild non-monotonic noise, catch inversions
			t.Fatalf("%v: error %v dropped far below previous format's %v", f, diff, prev)
		}
		prev = diff
	}
}

func TestTF32MatchesFP16Closely(t *testing.T) {
	// Same mantissa width => nearly identical perturbation for
	// normal-range weights (the paper's Fig. 5 observation).
	net := buildTestMLP(t, true)
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 9, 16)
	ref := net.Forward(x, false)
	var errs []float64
	for _, f := range []numfmt.Format{numfmt.TF32, numfmt.FP16} {
		q, err := Quantize(net, f)
		if err != nil {
			t.Fatal(err)
		}
		out := q.Forward(x, false)
		errs = append(errs, tensor.Vector(out.Data).Sub(tensor.Vector(ref.Data)).Norm2())
	}
	if errs[0] == 0 || errs[1] == 0 {
		t.Fatal("expected non-zero quantization perturbation")
	}
	ratio := errs[0] / errs[1]
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("TF32/FP16 error ratio %v should be near 1", ratio)
	}
}

func TestQuantizePSNFoldsAlpha(t *testing.T) {
	// The quantized copy stores effective weights, so its operator norm
	// should match the original's alpha (up to quantization noise).
	net := buildTestMLP(t, true)
	q, err := Quantize(net, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	orig := net.LinearOps()
	quant := q.LinearOps()
	for l := range orig {
		if math.Abs(orig[l].Sigma-quant[l].Sigma) > 0.05*orig[l].Sigma+1e-6 {
			t.Fatalf("layer %d sigma drifted: %v vs %v", l, orig[l].Sigma, quant[l].Sigma)
		}
	}
}

func TestQuantizeResNet(t *testing.T) {
	spec := nn.ResNetSpec("rn", 2, 8, 8, 4, []int{1, 1}, []int{4, 8}, nn.ActReLU, true)
	net, err := spec.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	net.RefreshSigmas()
	q, err := Quantize(net, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := randInput(rng, 2*8*8, 2)
	a := net.Forward(x, false)
	b := q.Forward(x, false)
	diff := tensor.Vector(a.Data).Sub(tensor.Vector(b.Data)).Norm2()
	ref := tensor.Vector(a.Data).Norm2()
	if diff > 0.05*ref {
		t.Fatalf("FP16 ResNet drifted %.2f%% of output norm", 100*diff/ref)
	}
	if diff == 0 {
		t.Fatal("expected some quantization perturbation")
	}
}

func TestQuantizeNoSpec(t *testing.T) {
	net := &nn.Network{InputDim: 2}
	if _, err := Quantize(net, numfmt.FP16); err == nil {
		t.Fatal("network without Spec should error")
	}
}

func TestQuantizeDoesNotMutateOriginal(t *testing.T) {
	net := buildTestMLP(t, true)
	before := make([]float64, 0)
	for _, p := range net.Params() {
		before = append(before, p.Data...)
	}
	if _, err := Quantize(net, numfmt.INT8); err != nil {
		t.Fatal(err)
	}
	after := make([]float64, 0)
	for _, p := range net.Params() {
		after = append(after, p.Data...)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Quantize mutated the original network")
		}
	}
}
