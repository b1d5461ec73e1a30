package pipeline

import (
	"math"
	"testing"

	"github.com/scidata/errprop/internal/compress"
	_ "github.com/scidata/errprop/internal/compress/mgard"
	_ "github.com/scidata/errprop/internal/compress/sz"
	_ "github.com/scidata/errprop/internal/compress/zfp"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func testNet(t testing.TB) *nn.Network {
	t.Helper()
	spec := nn.MLPSpec("m", []int{9, 50, 50, 9}, nn.ActTanh, true)
	net, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	net.RefreshSigmas()
	return net
}

func TestUncompressedPipeline(t *testing.T) {
	net := testNet(t)
	p, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.H2Combustion(16, 1)
	res, err := p.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 256 || res.Output.Rows != 9 || res.Output.Cols != 256 {
		t.Fatalf("result shape wrong: %d samples, %dx%d", res.Samples, res.Output.Rows, res.Output.Cols)
	}
	if res.Ratio != 1 || res.InputLinf != 0 {
		t.Fatalf("uncompressed run should be exact: ratio=%v linf=%v", res.Ratio, res.InputLinf)
	}
	if res.IO <= 0 || res.Exec <= 0 || res.Preprocess <= 0 {
		t.Fatal("phase timings must be positive")
	}
	if res.TotalThroughput > res.IOThroughput || res.TotalThroughput > res.ExecThroughput {
		t.Fatal("total throughput must be the slowest phase")
	}
}

func TestCompressedPipelineOutputsMatchManualPath(t *testing.T) {
	net := testNet(t)
	d := dataset.H2Combustion(16, 2)
	tol := 1e-4
	// 256 samples in batches of 48: five full batches and a short one
	// through the engine's one reused input.
	p, err := New(net, Config{Codec: "sz", Mode: compress.AbsLinf, InputTol: tol, Batch: 48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputLinf > tol {
		t.Fatalf("input reconstruction error %v > %v", res.InputLinf, tol)
	}
	// Manual path: compress+decompress, then forward.
	blob, err := compress.Encode("sz", d.FieldData(), d.FieldDims, compress.AbsLinf, tol)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := compress.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := net.Forward(d.FromFieldData(recon), false)
	for i := range want.Data {
		if res.Output.Data[i] != want.Data[i] {
			t.Fatalf("pipeline output diverges from manual path at %d", i)
		}
	}
	if res.Ratio <= 1 {
		t.Fatalf("compression ratio %v", res.Ratio)
	}
}

func TestQuantizedPipeline(t *testing.T) {
	net := testNet(t)
	d := dataset.H2Combustion(8, 3)
	p, err := New(net, Config{Format: numfmt.FP16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	// Quantized execution must differ slightly from full precision...
	full := net.Forward(d.FromFieldData(d.FieldData()), false)
	diff := tensor.Vector(res.Output.Data).Sub(tensor.Vector(full.Data)).Norm2()
	if diff == 0 {
		t.Fatal("FP16 pipeline produced bit-identical outputs (quantization not applied)")
	}
	// ...but stay within the analytical bound.
	an, err := core.AnalyzeNetwork(net, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	perSample := an.QuantizationBound()
	for s := 0; s < res.Samples; s++ {
		var ss float64
		for f := 0; f < 9; f++ {
			dd := res.Output.At(f, s) - full.At(f, s)
			ss += dd * dd
		}
		if math.Sqrt(ss) > perSample {
			t.Fatalf("sample %d quant error %v > bound %v", s, math.Sqrt(ss), perSample)
		}
	}
}

func TestFromPlanMeetsTolerance(t *testing.T) {
	net := testNet(t)
	d := dataset.H2Combustion(16, 4)
	tol := 1e-3
	plan, err := core.PlanNetwork(net, core.PlanRequest{
		Tol: tol, Norm: core.NormLinf, QuantFraction: 0.5, Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromPlan(net, plan, "zfp", core.NormLinf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	full := net.Forward(d.FromFieldData(d.FieldData()), false)
	worst := 0.0
	for i := range full.Data {
		if dd := math.Abs(res.Output.Data[i] - full.Data[i]); dd > worst {
			worst = dd
		}
	}
	if worst > tol {
		t.Fatalf("achieved QoI Linf %v > planned tolerance %v", worst, tol)
	}
}

func TestQuantizationSpeedsUpExecution(t *testing.T) {
	net := testNet(t)
	d := dataset.H2Combustion(16, 5)
	base, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(net, Config{Format: numfmt.FP16})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fast.Infer(d.FieldData(), d.FieldDims)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Exec > rb.Exec {
		t.Fatalf("FP16 exec %v slower than FP32 %v", rf.Exec, rb.Exec)
	}
}

func TestConfigValidation(t *testing.T) {
	net := testNet(t)
	if _, err := New(net, Config{Codec: "nope", Mode: compress.AbsLinf, InputTol: 1e-3}); err == nil {
		t.Fatal("unknown codec should fail")
	}
	if _, err := New(net, Config{Codec: "zfp", Mode: compress.L2, InputTol: 1e-3}); err == nil {
		t.Fatal("zfp+L2 should fail")
	}
	if _, err := New(net, Config{Codec: "sz", Mode: compress.AbsLinf}); err == nil {
		t.Fatal("missing tolerance should fail")
	}
}

func TestInferShapeMismatch(t *testing.T) {
	net := testNet(t)
	p, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(make([]float64, 8*4), []int{8, 4}); err == nil {
		t.Fatal("wrong feature dim should fail")
	}
}
