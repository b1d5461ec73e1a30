package nn

import (
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

// goldenInferSpecs is the golden architecture set the engine must match
// bit for bit: MLPs (PSN and plain, saturating and non-monotone
// activations), a conv/residual net, a BN+maxpool+round stack, a
// self-attention block, and a U-Net.
func goldenInferSpecs() []*Spec {
	return []*Spec{
		MLPSpec("mlp-psn", []int{9, 16, 12, 9}, ActTanh, true),
		MLPSpec("mlp-gelu", []int{9, 16, 9}, ActGELU, false),
		MLPSpec("mlp-sig", []int{6, 10, 4}, ActSigmoid, false),
		ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, ActReLU, true),
		{
			Name: "bn-pool-round", InputDim: 2 * 6 * 6,
			Layers: []LayerSpec{
				{Type: "conv", Name: "c1", C: 2, H: 6, W: 6, OutC: 4, K: 3, Stride: 1, Pad: 1},
				{Type: "bn", Name: "bn1", C: 4, H: 6, W: 6},
				{Type: "act", Act: ActReLU},
				{Type: "maxpool", Name: "mp1", C: 4, H: 6, W: 6, K: 2},
				{Type: "round", Name: "r1", Fmt: "fp16"},
				{Type: "dense", Name: "fc", In: 4 * 3 * 3, Out: 5},
			},
		},
		{
			Name: "attn", InputDim: 4 * 3,
			Layers: []LayerSpec{
				{Type: "attention", Name: "sa", In: 4, Out: 3},
				{Type: "act", Act: ActTanh},
				{Type: "dense", Name: "head", In: 12, Out: 6},
			},
		},
		UNetSpec("unet", 2, 8, 8, 3, 4, ActReLU, true),
	}
}

func buildGolden(t testing.TB, s *Spec, seed int64) *Network {
	t.Helper()
	net, err := s.Build(seed)
	if err != nil {
		t.Fatalf("build %s: %v", s.Name, err)
	}
	return net
}

func randInferBatch(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestEngineBitIdenticalToLegacyForward is the acceptance oracle: for
// every golden spec, Engine.Forward must equal Network.Forward exactly
// (==, not approximately) over seeded random batches, including batches
// beyond the compiled maxBatch (arena growth) and repeated calls
// (buffer reuse). Forward binds the caller's matrix as its input slot,
// so every input must also be unchanged at the end — neither its own
// call nor a later one may write through that binding.
func TestEngineBitIdenticalToLegacyForward(t *testing.T) {
	for _, spec := range goldenInferSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			const maxBatch = 8
			eng, err := CompileInference(net, maxBatch)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			wantOut, err := InferShapes(spec)
			if err != nil {
				t.Fatalf("InferShapes: %v", err)
			}
			if eng.OutputDim() != wantOut {
				t.Fatalf("OutputDim %d != InferShapes %d", eng.OutputDim(), wantOut)
			}
			rng := rand.New(rand.NewSource(11))
			var inputs []*tensor.Matrix
			var snaps [][]float64
			for _, batch := range []int{1, 5, 8, 11} {
				for rep := 0; rep < 2; rep++ {
					x := randInferBatch(rng, spec.InputDim, batch)
					want := net.Forward(x, false)
					inputs = append(inputs, x)
					snaps = append(snaps, append([]float64(nil), x.Data...))
					got := eng.Forward(x)
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("batch %d: shape %dx%d != %dx%d", batch, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					if !bitEqual(got.Data, want.Data) {
						t.Fatalf("batch %d rep %d: engine output not bit-identical to legacy Forward", batch, rep)
					}
				}
			}
			for i, x := range inputs {
				if !bitEqual(x.Data, snaps[i]) {
					t.Fatalf("input %d: Forward wrote the caller's matrix", i)
				}
			}
		})
	}
}

// TestEngineShardInputNotAliased pins the input binding across batch
// shapes: a single-column call followed by a wider call that outgrows
// the compiled maxBatch (arena growth) must stay bit-identical to
// Network.Forward and must not write through the stale binding of the
// earlier caller's matrix.
func TestEngineShardInputNotAliased(t *testing.T) {
	spec := MLPSpec("alias", []int{6, 9, 4}, ActTanh, false)
	net := buildGolden(t, spec, 11)
	eng, err := CompileInference(net, 4)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	x1 := randInferBatch(rng, 6, 1)
	snap := append([]float64(nil), x1.Data...)
	eng.Forward(x1)
	x8 := randInferBatch(rng, 6, 8)
	want := net.Forward(x8, false)
	if got := eng.Forward(x8); !bitEqual(got.Data, want.Data) {
		t.Fatal("wide call after single-column call lost bit-identity")
	}
	if !bitEqual(x1.Data, snap) {
		t.Fatal("wide call wrote through a stale input binding into caller memory")
	}
}

// TestEngineSharesWeights verifies engines see live weight updates (no
// per-engine weight copies): mutate the source network, and the next
// engine Forward must match the legacy Forward on the mutated weights.
func TestEngineSharesWeights(t *testing.T) {
	spec := MLPSpec("shared", []int{5, 8, 3}, ActTanh, false)
	net := buildGolden(t, spec, 3)
	eng, err := CompileInference(net, 4)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	x := randInferBatch(rng, 5, 4)
	before := eng.Forward(x).Clone()
	for _, p := range net.Params() {
		for i := range p.Data {
			p.Data[i] *= 1.5
		}
	}
	want := net.Forward(x, false)
	got := eng.Forward(x)
	if !bitEqual(got.Data, want.Data) {
		t.Fatal("engine did not observe live weight update")
	}
	if bitEqual(got.Data, before.Data) {
		t.Fatal("engine output unchanged after weight mutation; weights must be shared, not copied")
	}
}

// TestEngineForwardZeroAllocs is the steady-state allocation guarantee:
// once compiled and warmed, Engine.Forward performs zero heap
// allocations for the golden MLP, conv/residual, and U-Net specs.
func TestEngineForwardZeroAllocs(t *testing.T) {
	specs := []*Spec{
		MLPSpec("mlp-psn", []int{9, 16, 12, 9}, ActTanh, true),
		ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, ActReLU, true),
		UNetSpec("unet", 2, 8, 8, 3, 4, ActReLU, true),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			eng, err := CompileInference(net, 8)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rng := rand.New(rand.NewSource(13))
			x := randInferBatch(rng, spec.InputDim, 8)
			eng.Forward(x) // warm the arena
			if allocs := testing.AllocsPerRun(30, func() { eng.Forward(x) }); allocs != 0 {
				t.Fatalf("steady-state Engine.Forward: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestCompileInferenceErrors pins the compile-time failure modes.
func TestCompileInferenceErrors(t *testing.T) {
	spec := MLPSpec("m", []int{4, 3}, ActTanh, false)
	net := buildGolden(t, spec, 1)
	if _, err := CompileInference(net, 0); err == nil {
		t.Fatal("expected error for maxBatch 0")
	}
	if _, err := CompileInference(nil, 4); err == nil {
		t.Fatal("expected error for nil network")
	}
	if _, err := CompileInference(&Network{InputDim: 0}, 4); err == nil {
		t.Fatal("expected error for unknown input dim")
	}
}

// TestInferShapesMatchesBuiltNetworks: static shape inference must agree
// with a real forward pass for every golden spec.
func TestInferShapesMatchesBuiltNetworks(t *testing.T) {
	for _, spec := range goldenInferSpecs() {
		out, err := InferShapes(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		net := buildGolden(t, spec, 2)
		y := net.Forward(randInferBatch(rand.New(rand.NewSource(1)), spec.InputDim, 2), false)
		if y.Rows != out {
			t.Fatalf("%s: InferShapes %d != forward output rows %d", spec.Name, out, y.Rows)
		}
	}
}

func TestInferShapesErrors(t *testing.T) {
	if _, err := InferShapes(&Spec{Name: "neg", InputDim: -1}); err == nil {
		t.Fatal("expected error for negative input dim")
	}
	if _, err := InferShapes(&Spec{Name: "unknown", Layers: []LayerSpec{{Type: "act", Act: ActTanh}}}); err == nil {
		t.Fatal("expected error for statically unknown output dim")
	}
	if _, err := InferShapes(&Spec{Name: "bad", InputDim: 4, Layers: []LayerSpec{{Type: "dense", In: 5, Out: 2}}}); err == nil {
		t.Fatal("expected chaining error")
	}
}

// TestEngineRoundLayerFormats covers activation-rounding formats beyond
// the golden set's fp16 (engine must call the identical Round path).
func TestEngineRoundLayerFormats(t *testing.T) {
	for _, f := range []numfmt.Format{numfmt.FP32, numfmt.TF32, numfmt.BF16} {
		spec := &Spec{Name: "round-" + f.String(), InputDim: 6, Layers: []LayerSpec{
			{Type: "dense", Name: "fc1", In: 6, Out: 8},
			{Type: "round", Name: "r", Fmt: f.String()},
			{Type: "dense", Name: "fc2", In: 8, Out: 3},
		}}
		net := buildGolden(t, spec, 4)
		eng, err := CompileInference(net, 4)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		x := randInferBatch(rand.New(rand.NewSource(6)), 6, 4)
		if !bitEqual(eng.Forward(x).Data, net.Forward(x, false).Data) {
			t.Fatalf("%s: engine not bit-identical", spec.Name)
		}
	}
}

func benchForwardNet(b *testing.B) (*Network, *Engine) {
	b.Helper()
	spec := MLPSpec("bench", []int{9, 64, 64, 9}, ActTanh, true)
	net, err := spec.Build(7)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := CompileInference(net, 64)
	if err != nil {
		b.Fatal(err)
	}
	return net, eng
}

func BenchmarkForwardLegacy(b *testing.B) {
	net, _ := benchForwardNet(b)
	for _, batch := range []int{1, 16, 64} {
		batch := batch
		b.Run(map[int]string{1: "batch1", 16: "batch16", 64: "batch64"}[batch], func(b *testing.B) {
			x := randInferBatch(rand.New(rand.NewSource(3)), 9, batch)
			net.Forward(x, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
		})
	}
}

func BenchmarkForwardEngine(b *testing.B) {
	_, eng := benchForwardNet(b)
	for _, batch := range []int{1, 16, 64} {
		batch := batch
		b.Run(map[int]string{1: "batch1", 16: "batch16", 64: "batch64"}[batch], func(b *testing.B) {
			x := randInferBatch(rand.New(rand.NewSource(3)), 9, batch)
			eng.Forward(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Forward(x)
			}
		})
	}
}
