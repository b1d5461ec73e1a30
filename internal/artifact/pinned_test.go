package artifact

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

// goldenSpecs are the seven architectures the engine's golden tests pin
// (internal/nn), repeated here because test helpers do not cross
// packages.
func goldenSpecs() []*nn.Spec {
	return []*nn.Spec{
		nn.MLPSpec("mlp-psn", []int{9, 16, 12, 9}, nn.ActTanh, true),
		nn.MLPSpec("mlp-gelu", []int{9, 16, 9}, nn.ActGELU, false),
		nn.MLPSpec("mlp-sig", []int{6, 10, 4}, nn.ActSigmoid, false),
		nn.ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, nn.ActReLU, true),
		{
			Name: "bn-pool-round", InputDim: 2 * 6 * 6,
			Layers: []nn.LayerSpec{
				{Type: "conv", Name: "c1", C: 2, H: 6, W: 6, OutC: 4, K: 3, Stride: 1, Pad: 1},
				{Type: "bn", Name: "bn1", C: 4, H: 6, W: 6},
				{Type: "act", Act: nn.ActReLU},
				{Type: "maxpool", Name: "mp1", C: 4, H: 6, W: 6, K: 2},
				{Type: "round", Name: "r1", Fmt: "fp16"},
				{Type: "dense", Name: "fc", In: 4 * 3 * 3, Out: 5},
			},
		},
		{
			Name: "attn", InputDim: 4 * 3,
			Layers: []nn.LayerSpec{
				{Type: "attention", Name: "sa", In: 4, Out: 3},
				{Type: "act", Act: nn.ActTanh},
				{Type: "dense", Name: "head", In: 12, Out: 6},
			},
		},
		nn.UNetSpec("unet", 2, 8, 8, 3, 4, nn.ActReLU, true),
	}
}

var allFormats = append([]numfmt.Format{numfmt.FP32}, stepFormats...)

// dumpRoot renders what a decoded artifact hands the analysis: every
// graph node's kind, label, C, Off and IsAct, each linear op's name, σ,
// dims, gains, row norms, weight count and step table, and the stored
// bound. Floats are written as their bits.
func dumpRoot(a *Artifact) []byte {
	var b bytes.Buffer
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var walk func(nd *core.Node)
	walk = func(nd *core.Node) {
		fmt.Fprintf(&b, "%d %q %s %s %t\n", nd.Kind, nd.Label, bits(nd.C), bits(nd.Off), nd.IsAct)
		switch nd.Kind {
		case core.KindLinear:
			op := nd.Op
			fmt.Fprintf(&b, "op %q %s %d %d %d %d %s %s w%d", op.LayerName, bits(op.Sigma),
				op.InDim, op.OutDim, op.WRows, op.WCols, bits(op.AddGain), bits(op.InflGain), len(op.Weights))
			for _, v := range op.RowNorms {
				fmt.Fprintf(&b, " %s", bits(v))
			}
			b.WriteString("\nsteps")
			for _, f := range stepFormats {
				sf, _ := a.StepsFor(f)
				fmt.Fprintf(&b, " %s", bits(sf(op)))
			}
			b.WriteByte('\n')
		case core.KindSequence:
			for _, c := range nd.Children {
				walk(c)
			}
		case core.KindResidual, core.KindConcat:
			walk(nd.Branch)
			if nd.Shortcut != nil {
				walk(nd.Shortcut)
			}
		}
	}
	walk(a.Root)
	fmt.Fprintf(&b, "bound %s\n", bits(a.QuantBound))
	return b.Bytes()
}

// pinnedRoots holds the byte length and CRC32C of dumpRoot of the
// decoded artifact of each golden spec (seed 7) at each format, recorded
// from artifacts that shipped their error-flow graph as a serialized
// node tree. A pass means the graph derived from the shipped network
// plus the per-op rows is the same graph, to the bit.
var pinnedRoots = map[string]string{
	"mlp-psn/fp32":          "1541:68ab16be",
	"mlp-psn/tf32":          "1541:d3733872",
	"mlp-psn/fp16":          "1541:d3733872",
	"mlp-psn/bf16":          "1541:e393a447",
	"mlp-psn/int8":          "1541:41521235",
	"mlp-psn/fp8e4m3":       "1541:728ed8c1",
	"mlp-psn/fp8e5m2":       "1541:1ce20dcc",
	"mlp-gelu/fp32":         "1042:eb9e4c91",
	"mlp-gelu/tf32":         "1042:0822bab9",
	"mlp-gelu/fp16":         "1042:0822bab9",
	"mlp-gelu/bf16":         "1042:94639690",
	"mlp-gelu/int8":         "1042:be5eb12d",
	"mlp-gelu/fp8e4m3":      "1042:2475dce8",
	"mlp-gelu/fp8e5m2":      "1042:a13f4bcf",
	"mlp-sig/fp32":          "854:81cdb9a9",
	"mlp-sig/tf32":          "854:e28e57b0",
	"mlp-sig/fp16":          "854:e28e57b0",
	"mlp-sig/bf16":          "854:bb656560",
	"mlp-sig/int8":          "854:fb47e198",
	"mlp-sig/fp8e4m3":       "854:5617b2b3",
	"mlp-sig/fp8e5m2":       "854:b2cdcb9d",
	"resnet/fp32":           "2496:7164d55b",
	"resnet/tf32":           "2496:49b6464d",
	"resnet/fp16":           "2496:9a3dadb6",
	"resnet/bf16":           "2496:ae5e1a13",
	"resnet/int8":           "2496:6a0a1020",
	"resnet/fp8e4m3":        "2496:eea17fe4",
	"resnet/fp8e5m2":        "2496:f332f769",
	"bn-pool-round/fp32":    "807:3c93ad7d",
	"bn-pool-round/tf32":    "807:39f7207a",
	"bn-pool-round/fp16":    "807:39f7207a",
	"bn-pool-round/bf16":    "807:442b96ed",
	"bn-pool-round/int8":    "807:7cf1cb9f",
	"bn-pool-round/fp8e4m3": "807:7cc20dd8",
	"bn-pool-round/fp8e5m2": "807:09ee3456",
	"attn/fp32":             "503:9346edaa",
	"attn/tf32":             "503:09fbb68b",
	"attn/fp16":             "503:09fbb68b",
	"attn/bf16":             "503:07d4378d",
	"attn/int8":             "503:cf53e958",
	"attn/fp8e4m3":          "503:18422bde",
	"attn/fp8e5m2":          "503:c8a4ed59",
	"unet/fp32":             "1405:7cb01b8b",
	"unet/tf32":             "1405:813f69a8",
	"unet/fp16":             "1405:294aa958",
	"unet/bf16":             "1405:efc3dcf4",
	"unet/int8":             "1405:6a602eda",
	"unet/fp8e4m3":          "1405:4c82ab4d",
	"unet/fp8e5m2":          "1405:f24e90b4",
}

func TestDecodedRootPinned(t *testing.T) {
	n := 0
	for _, s := range goldenSpecs() {
		net := buildNet(t, s)
		for _, f := range allFormats {
			name := fmt.Sprintf("%s/%s", s.Name, f)
			art, err := Build(net, f)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			raw, err := art.Encode()
			if err != nil {
				t.Fatalf("%s: Encode: %v", name, err)
			}
			dec, err := Decode(raw)
			if err != nil {
				t.Fatalf("%s: Decode: %v", name, err)
			}
			dump := dumpRoot(dec)
			got := fmt.Sprintf("%d:%08x", len(dump), integrity.Checksum(dump))
			if want := pinnedRoots[name]; got != want {
				t.Errorf("%s: decoded graph %s, pinned %q", name, got, want)
			}
			n++
		}
	}
	if n != len(pinnedRoots) {
		t.Errorf("%d rows, %d pinned", n, len(pinnedRoots))
	}
}

// trainedBNNet is conv -> BN -> ReLU -> dense with BatchNorm statistics
// away from their initial values (gamma 1.5-1.8, beta 0.3, running mean
// 0.2, running variance 2), as training leaves them.
func trainedBNNet(t testing.TB) *nn.Network {
	t.Helper()
	net, err := (&nn.Spec{
		Name: "bn-trained", InputDim: 2 * 6 * 6,
		Layers: []nn.LayerSpec{
			{Type: "conv", Name: "c1", C: 2, H: 6, W: 6, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Type: "bn", Name: "bn1", C: 4, H: 6, W: 6},
			{Type: "act", Act: nn.ActReLU},
			{Type: "dense", Name: "fc", In: 4 * 6 * 6, Out: 5},
		},
	}).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	bn := net.Layers[1].(*nn.BatchNorm2D)
	for c := 0; c < bn.C; c++ {
		bn.Gamma.Data[c] = 1.5 + 0.1*float64(c)
		bn.Beta.Data[c] = 0.3
		bn.RunMean.Data[c] = 0.2
		bn.RunVar.Data[c] = 2
	}
	return net
}

// TestServedBNNetWithinBound: an artifact serves the network its bound
// certifies. Over 64 seeded inputs in [-1, 1], the decoded engine's
// worst L2 distance from the original trained-BN network stays within
// the stored quantization bound.
func TestServedBNNetWithinBound(t *testing.T) {
	net := trainedBNNet(t)
	const n = 64
	x := tensor.NewMatrix(net.InputDim, n)
	rng := rand.New(rand.NewSource(17))
	for i := range x.Data {
		x.Data[i] = 2*rng.Float64() - 1
	}
	want := net.Forward(x, false)
	for _, f := range []numfmt.Format{numfmt.FP16, numfmt.INT8} {
		art, err := Build(net, f)
		if err != nil {
			t.Fatalf("%s: Build: %v", f, err)
		}
		raw, err := art.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", f, err)
		}
		dec, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: Decode: %v", f, err)
		}
		eng, err := dec.Program.Bind(dec.Net, n, 1)
		if err != nil {
			t.Fatalf("%s: Bind: %v", f, err)
		}
		got := eng.Forward(x)
		var worst float64
		for c := 0; c < n; c++ {
			var s float64
			for r := 0; r < got.Rows; r++ {
				d := got.At(r, c) - want.At(r, c)
				s += d * d
			}
			worst = math.Max(worst, math.Sqrt(s))
		}
		if worst > dec.QuantBound {
			t.Errorf("%s: served error %.4g exceeds the certified bound %.4g (%.1fx)", f, worst, dec.QuantBound, worst/dec.QuantBound)
		}
	}
}
