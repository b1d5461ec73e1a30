package quant

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func TestGroupedQuantizePreservesShape(t *testing.T) {
	net := buildTestMLP(t, true)
	for _, g := range numfmt.Granularities {
		q, err := QuantizeGroupedINT8(net, g, 64)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		x := randInput(rand.New(rand.NewSource(1)), 9, 4)
		out := q.Forward(x, false)
		if out.Rows != 9 || out.Cols != 4 {
			t.Fatalf("%v: output shape %dx%d", g, out.Rows, out.Cols)
		}
	}
}

func TestGroupedReducesError(t *testing.T) {
	// The extension's raison d'etre: finer granularity must shrink the
	// achieved output error versus per-tensor INT8.
	net := buildTestMLP(t, true)
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, 9, 64)
	ref := net.Forward(x, false)
	errFor := func(g numfmt.Granularity) float64 {
		q, err := QuantizeGroupedINT8(net, g, 64)
		if err != nil {
			t.Fatal(err)
		}
		out := q.Forward(x, false)
		return tensor.Vector(out.Data).Sub(tensor.Vector(ref.Data)).Norm2()
	}
	perTensor := errFor(numfmt.PerTensor)
	perRow := errFor(numfmt.PerRow)
	if perRow >= perTensor {
		t.Fatalf("per-row error %v should beat per-tensor %v", perRow, perTensor)
	}
}

func TestGroupedMatchesUniformForPerTensor(t *testing.T) {
	// PerTensor grouped quantization must agree with the Table I uniform
	// path bit for bit.
	net := buildTestMLP(t, true)
	a, err := QuantizeGroupedINT8(net, numfmt.PerTensor, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Quantize(net, numfmt.INT8)
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.LinearOps(), b.LinearOps()
	for l := range ao {
		for i := range ao[l].Weights {
			if ao[l].Weights[i] != bo[l].Weights[i] {
				t.Fatalf("layer %d weight %d differs: %v vs %v", l, i, ao[l].Weights[i], bo[l].Weights[i])
			}
		}
	}
}

func TestGroupedBoundHolds(t *testing.T) {
	// The grouped analysis must bound the grouped network's error, for
	// every granularity.
	net := buildTestMLP(t, true)
	rng := rand.New(rand.NewSource(3))
	for _, g := range numfmt.Granularities {
		an, err := core.AnalyzeNetworkGroupedINT8(net, g, 64)
		if err != nil {
			t.Fatal(err)
		}
		qnet, err := QuantizeGroupedINT8(net, g, 64)
		if err != nil {
			t.Fatal(err)
		}
		bound := an.QuantizationBound()
		if bound <= 0 {
			t.Fatalf("%v: degenerate bound %v", g, bound)
		}
		for trial := 0; trial < 20; trial++ {
			x := randInput(rng, 9, 1)
			y := net.Forward(x, false)
			yq := qnet.Forward(x, false)
			if d := tensor.Vector(yq.Data).Sub(tensor.Vector(y.Data)).Norm2(); d > bound {
				t.Fatalf("%v trial %d: achieved %v > bound %v", g, trial, d, bound)
			}
		}
	}
}

func TestGroupedBoundTighterThanPerTensor(t *testing.T) {
	net := buildTestMLP(t, true)
	boundFor := func(g numfmt.Granularity) float64 {
		an, err := core.AnalyzeNetworkGroupedINT8(net, g, 64)
		if err != nil {
			t.Fatal(err)
		}
		return an.QuantizationBound()
	}
	pt := boundFor(numfmt.PerTensor)
	pr := boundFor(numfmt.PerRow)
	if pr >= pt {
		t.Fatalf("per-row bound %v should beat per-tensor %v", pr, pt)
	}
	// And the per-tensor grouped bound equals the Table I INT8 bound.
	an, err := core.AnalyzeNetwork(net, numfmt.INT8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt-an.QuantizationBound()) > 1e-12*pt {
		t.Fatalf("per-tensor grouped bound %v != Table I bound %v", pt, an.QuantizationBound())
	}
}

func TestGroupedOnResNet(t *testing.T) {
	spec := nn.ResNetSpec("rn", 2, 8, 8, 4, []int{1, 1}, []int{4, 8}, nn.ActReLU, true)
	net, err := spec.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	net.RefreshSigmas()
	q, err := QuantizeGroupedINT8(net, numfmt.PerRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rand.New(rand.NewSource(7)), 2*8*8, 2)
	if out := q.Forward(x, false); out.Rows != 4 {
		t.Fatalf("resnet grouped output rows %d", out.Rows)
	}
}

func TestGroupedOverhead(t *testing.T) {
	net := buildTestMLP(t, false)
	pt := GroupedOverheadBytes(net, numfmt.PerTensor, 0)
	pr := GroupedOverheadBytes(net, numfmt.PerRow, 0)
	if pt != 3*8 { // one scale pair per layer
		t.Fatalf("per-tensor overhead %d", pt)
	}
	if pr != (50+50+9)*8 {
		t.Fatalf("per-row overhead %d", pr)
	}
	for _, op := range net.LinearOps() {
		if q, err := numfmt.GroupedStepSize(op.Weights, op.WRows, op.WCols, numfmt.PerRow, 0); err != nil || q <= 0 {
			t.Fatalf("%s: per-row step %v, %v", op.LayerName, q, err)
		}
	}
}
