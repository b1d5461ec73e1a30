package nn

import (
	"fmt"
	"math/rand"

	"github.com/scidata/errprop/internal/tensor"
	"testing"
)

// Benchmarks for the blocked/fused engine paths on the paper's
// heavier model shapes (the MLP benchmarks live in infer_test.go). Each
// naive-vs-engine pair shares its spec and input so ns/op deltas are the
// kernel schedule alone; BENCH_infer.json rows are produced from the
// same shapes by internal/serve's TestWriteInferBenchJSON.

func benchConvNet(b *testing.B) *Network {
	b.Helper()
	net, err := ResNetSpec("bench-conv", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, ActReLU, true).Build(17)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchAttnSpec is a transformer-block shape big enough for the q/k/v
// and score matmuls to dominate (T=16 tokens, D=32 features).
func benchAttnSpec() *Spec {
	return &Spec{
		Name: "bench-attn", InputDim: 16 * 32,
		Layers: []LayerSpec{
			{Type: "attention", Name: "sa", In: 16, Out: 32},
			{Type: "act", Act: ActTanh},
			{Type: "dense", Name: "head", In: 16 * 32, Out: 64},
		},
	}
}

func benchAttnNet(b *testing.B) *Network {
	b.Helper()
	net, err := benchAttnSpec().Build(19)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func runForwardBench(b *testing.B, inDim int, f func(x *tensor.Matrix)) {
	b.Helper()
	for _, batch := range []int{1, 16, 64} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			x := randInferBatch(rand.New(rand.NewSource(3)), inDim, batch)
			f(x) // warm arenas outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f(x)
			}
		})
	}
}

func BenchmarkForwardLegacyConv(b *testing.B) {
	net := benchConvNet(b)
	runForwardBench(b, net.InputDim, func(x *tensor.Matrix) { net.Forward(x, false) })
}

func BenchmarkForwardEngineConv(b *testing.B) {
	net := benchConvNet(b)
	eng, err := CompileInference(net, 64)
	if err != nil {
		b.Fatal(err)
	}
	runForwardBench(b, net.InputDim, func(x *tensor.Matrix) { eng.Forward(x) })
}

func BenchmarkForwardLegacyAttention(b *testing.B) {
	net := benchAttnNet(b)
	runForwardBench(b, net.InputDim, func(x *tensor.Matrix) { net.Forward(x, false) })
}

func BenchmarkForwardEngineAttention(b *testing.B) {
	net := benchAttnNet(b)
	eng, err := CompileInference(net, 64)
	if err != nil {
		b.Fatal(err)
	}
	runForwardBench(b, net.InputDim, func(x *tensor.Matrix) { eng.Forward(x) })
}
