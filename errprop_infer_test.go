package errprop_test

import (
	"fmt"
	"math/rand"
	"testing"

	errprop "github.com/scidata/errprop"
	"github.com/scidata/errprop/internal/tensor"
)

// bitEqual reports exact floating-point equality — the property the
// compiled inference engine guarantees, so certified bounds computed
// against Network.Forward transfer to Engine.Forward verbatim.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randBatch(rng *rand.Rand, rows, cols int) *errprop.Matrix {
	x := errprop.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	return x
}

// TestEngineBitIdenticalQuantized is the facade-level acceptance oracle
// for quantized models: for every weight format, an engine compiled from
// the quantized network must reproduce the quantized network's forward
// pass exactly — to the last bit — over seeded random batches. This is
// the property that lets a serving deployment quantize once at
// registration and still hand out the analysis-certified bounds.
func TestEngineBitIdenticalQuantized(t *testing.T) {
	specs := []*errprop.Spec{
		errprop.MLPSpec("q-mlp", []int{6, 20, 14, 3}, errprop.ActTanh, true),
		errprop.ResNetSpec("q-resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, errprop.ActReLU, true),
	}
	formats := []errprop.Format{errprop.TF32, errprop.FP16, errprop.BF16, errprop.INT8}
	for _, spec := range specs {
		for _, f := range formats {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, f), func(t *testing.T) {
				net, err := spec.Build(31)
				if err != nil {
					t.Fatal(err)
				}
				qnet, err := errprop.Quantize(net, f)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := errprop.CompileInference(qnet, 8)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(32))
				for _, batch := range []int{1, 5, 8} {
					x := randBatch(rng, net.InputDim, batch)
					want := qnet.Forward(x, false)
					got := eng.Forward(x)
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("batch %d: shape (%d,%d) != (%d,%d)",
							batch, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					if !bitEqual(got.Data, want.Data) {
						t.Fatalf("batch %d: engine output not bit-identical to quantized Network.Forward", batch)
					}
				}
			})
		}
	}
}

// TestFacadeInferShapes checks the exported static shape inference
// against built networks.
func TestFacadeInferShapes(t *testing.T) {
	spec := errprop.ResNetSpec("shape", 1, 8, 8, 5, []int{1, 1}, []int{4, 8}, errprop.ActReLU, false)
	out, err := errprop.InferShapes(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(net.InputDim, 2)
	if got := net.Forward(x, false).Rows; got != out {
		t.Fatalf("InferShapes = %d, built network outputs %d rows", out, got)
	}
	eng, err := errprop.CompileInference(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.OutputDim() != out {
		t.Fatalf("Engine.OutputDim() = %d, InferShapes = %d", eng.OutputDim(), out)
	}
}
