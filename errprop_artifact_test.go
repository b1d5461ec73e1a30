package errprop_test

import (
	"fmt"
	"math/rand"
	"testing"

	errprop "github.com/scidata/errprop"
)

// goldenArtifactSpecs mirrors the engine layer's golden inventory: the
// seven architectures the exactness discipline is certified over.
func goldenArtifactSpecs() []*errprop.Spec {
	return []*errprop.Spec{
		errprop.MLPSpec("mlp-psn", []int{9, 16, 12, 9}, errprop.ActTanh, true),
		errprop.MLPSpec("mlp-gelu", []int{9, 16, 9}, errprop.ActGELU, false),
		errprop.MLPSpec("mlp-sig", []int{6, 10, 4}, errprop.ActSigmoid, false),
		errprop.ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, errprop.ActReLU, true),
		{
			Name: "bn-pool-round", InputDim: 2 * 6 * 6,
			Layers: []errprop.LayerSpec{
				{Type: "conv", Name: "c1", C: 2, H: 6, W: 6, OutC: 4, K: 3, Stride: 1, Pad: 1},
				{Type: "bn", Name: "bn1", C: 4, H: 6, W: 6},
				{Type: "act", Act: errprop.ActReLU},
				{Type: "maxpool", Name: "mp1", C: 4, H: 6, W: 6, K: 2},
				{Type: "round", Name: "r1", Fmt: "fp16"},
				{Type: "dense", Name: "fc", In: 4 * 3 * 3, Out: 5},
			},
		},
		{
			Name: "attn", InputDim: 4 * 3,
			Layers: []errprop.LayerSpec{
				{Type: "attention", Name: "sa", In: 4, Out: 3},
				{Type: "act", Act: errprop.ActTanh},
				{Type: "dense", Name: "head", In: 12, Out: 6},
			},
		},
		errprop.UNetSpec("unet", 2, 8, 8, 3, 4, errprop.ActReLU, true),
	}
}

// TestArtifactEngineBitIdenticalToSpecPath is the acceptance oracle for
// ahead-of-time artifacts: for every golden architecture and format, an
// engine cold-started from a decoded artifact — shipped
// program bound to shipped build-time-quantized weights — must
// reproduce the quantize-then-compile-from-spec engine's forward pass
// to the last bit. The artifact round-trips through its wire encoding
// first, so the property holds for the bytes a deployment actually
// loads, and the certified bound it carries must bit-equal the live
// analysis of the original network.
func TestArtifactEngineBitIdenticalToSpecPath(t *testing.T) {
	const maxBatch = 8
	formats := []errprop.Format{errprop.FP32, errprop.TF32, errprop.FP16, errprop.BF16, errprop.INT8}
	for _, spec := range goldenArtifactSpecs() {
		net, err := spec.Build(31)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range formats {
			art, err := errprop.BuildArtifact(net, f)
			if err != nil {
				t.Fatalf("%s/%s: BuildArtifact: %v", spec.Name, f, err)
			}
			raw, err := art.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := errprop.DecodeArtifact(raw)
			if err != nil {
				t.Fatalf("%s/%s: DecodeArtifact: %v", spec.Name, f, err)
			}

			an, err := errprop.Analyze(net, f)
			if err != nil {
				t.Fatal(err)
			}
			if dec.QuantBound != an.QuantizationBound() {
				t.Fatalf("%s/%s: artifact bound %x != live analysis %x",
					spec.Name, f, dec.QuantBound, an.QuantizationBound())
			}

			serving := net
			if f != errprop.FP32 {
				if serving, err = errprop.Quantize(net, f); err != nil {
					t.Fatal(err)
				}
			}
			t.Run(fmt.Sprintf("%s/%s", spec.Name, f), func(t *testing.T) {
				ref, err := errprop.CompileInference(serving, maxBatch)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := dec.Program.Bind(dec.Net, maxBatch, 1)
				if err != nil {
					t.Fatalf("binding decoded artifact: %v", err)
				}
				rng := rand.New(rand.NewSource(32))
				for _, batch := range []int{1, maxBatch} {
					x := randBatch(rng, net.InputDim, batch)
					want := ref.Forward(x)
					got := eng.Forward(x)
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("batch %d: shape (%d,%d) != (%d,%d)",
							batch, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					if !bitEqual(got.Data, want.Data) {
						t.Fatalf("batch %d: artifact engine not bit-identical to spec-path engine", batch)
					}
				}
			})
		}
	}
}
