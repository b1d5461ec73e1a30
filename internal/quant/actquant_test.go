package quant

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func TestQuantizeActivationsInsertsRounds(t *testing.T) {
	net := buildTestMLP(t, true)
	q, err := QuantizeActivations(net, numfmt.FP32, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, l := range q.Layers {
		if _, ok := l.(*nn.RoundLayer); ok {
			rounds++
		}
	}
	if rounds != 2 { // one per hidden activation
		t.Fatalf("want 2 round layers, got %d", rounds)
	}
}

func TestQuantizeActivationsChangesOutputs(t *testing.T) {
	net := buildTestMLP(t, true)
	q, err := QuantizeActivations(net, numfmt.FP32, numfmt.BF16)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rand.New(rand.NewSource(8)), 9, 8)
	a := net.Forward(x, false)
	b := q.Forward(x, false)
	diff := tensor.Vector(a.Data).Sub(tensor.Vector(b.Data)).Norm2()
	if diff == 0 {
		t.Fatal("BF16 activation rounding should perturb outputs")
	}
	// And FP16 activations perturb less than BF16.
	q16, err := QuantizeActivations(net, numfmt.FP32, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	b16 := q16.Forward(x, false)
	diff16 := tensor.Vector(a.Data).Sub(tensor.Vector(b16.Data)).Norm2()
	if diff16 >= diff {
		t.Fatalf("FP16 activation error %v should be below BF16's %v", diff16, diff)
	}
}

func TestQuantizeActivationsRejectsINT8(t *testing.T) {
	net := buildTestMLP(t, false)
	if _, err := QuantizeActivations(net, numfmt.FP16, numfmt.INT8); err == nil {
		t.Fatal("INT8 activations should be rejected")
	}
}

func TestQuantizeActivationsNoSpec(t *testing.T) {
	if _, err := QuantizeActivations(&nn.Network{InputDim: 2}, numfmt.FP16, numfmt.FP16); err == nil {
		t.Fatal("network without Spec should error")
	}
}

func TestQuantizeActivationsOnResNet(t *testing.T) {
	spec := nn.ResNetSpec("rn", 2, 8, 8, 4, []int{1}, []int{4}, nn.ActReLU, true)
	net, err := spec.Build(9)
	if err != nil {
		t.Fatal(err)
	}
	net.RefreshSigmas()
	q, err := QuantizeActivations(net, numfmt.FP16, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rand.New(rand.NewSource(10)), 2*8*8, 2)
	out := q.Forward(x, false)
	if out.Rows != 4 || out.Cols != 2 {
		t.Fatalf("output %dx%d", out.Rows, out.Cols)
	}
}

func TestMixedQuantizeMatchesUniformOnConstantAssignment(t *testing.T) {
	net := buildTestMLP(t, true)
	assign := []numfmt.Format{numfmt.BF16, numfmt.BF16, numfmt.BF16}
	mixed, err := QuantizeMixed(net, assign)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Quantize(net, numfmt.BF16)
	if err != nil {
		t.Fatal(err)
	}
	mo, uo := mixed.LinearOps(), uni.LinearOps()
	for l := range mo {
		for i := range mo[l].Weights {
			if mo[l].Weights[i] != uo[l].Weights[i] {
				t.Fatalf("layer %d weight %d differs", l, i)
			}
		}
	}
}

func TestMixedQuantizePerLayerEffects(t *testing.T) {
	// An INT8 layer must show INT8-scale perturbation while an FP32 layer
	// stays (almost) exact.
	net := buildTestMLP(t, true)
	assign := []numfmt.Format{numfmt.INT8, numfmt.FP32, numfmt.FP32}
	q, err := QuantizeMixed(net, assign)
	if err != nil {
		t.Fatal(err)
	}
	orig, got := net.LinearOps(), q.LinearOps()
	var maxL0, maxL1 float64
	for i := range orig[0].Weights {
		if d := math.Abs(orig[0].Weights[i] - got[0].Weights[i]); d > maxL0 {
			maxL0 = d
		}
	}
	for i := range orig[1].Weights {
		if d := math.Abs(orig[1].Weights[i] - got[1].Weights[i]); d > maxL1 {
			maxL1 = d
		}
	}
	if maxL0 < 1e-6 {
		t.Fatalf("INT8 layer barely moved: %v", maxL0)
	}
	if maxL1 > 1e-7 {
		t.Fatalf("FP32 layer moved too much: %v", maxL1)
	}
}
