package quant

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
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

func goldenSpec(t testing.TB, name string) *nn.Spec {
	t.Helper()
	for _, s := range goldenSpecs() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no golden spec %q", name)
	return nil
}

func buildSpec(t testing.TB, s *nn.Spec, seed int64) *nn.Network {
	t.Helper()
	net, err := s.Build(seed)
	if err != nil {
		t.Fatalf("building %s: %v", s.Name, err)
	}
	return net
}

// trainedBNNet is conv -> BN -> ReLU -> dense with BatchNorm statistics
// away from their initial values (gamma 1.5-1.8, beta 0.3, running mean
// 0.2, running variance 2), as training leaves them.
func trainedBNNet(t testing.TB) *nn.Network {
	t.Helper()
	net := buildSpec(t, &nn.Spec{
		Name: "bn-trained", InputDim: 2 * 6 * 6,
		Layers: []nn.LayerSpec{
			{Type: "conv", Name: "c1", C: 2, H: 6, W: 6, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Type: "bn", Name: "bn1", C: 4, H: 6, W: 6},
			{Type: "act", Act: nn.ActReLU},
			{Type: "dense", Name: "fc", In: 4 * 6 * 6, Out: 5},
		},
	}, 3)
	bn := net.Layers[1].(*nn.BatchNorm2D)
	for c := 0; c < bn.C; c++ {
		bn.Gamma.Data[c] = 1.5 + 0.1*float64(c)
		bn.Beta.Data[c] = 0.3
		bn.RunMean.Data[c] = 0.2
		bn.RunVar.Data[c] = 2
	}
	return net
}

// ownRoundNet carries a round layer of its own, before any quantizer
// inserts more.
func ownRoundNet(t testing.TB) *nn.Network {
	t.Helper()
	return buildSpec(t, &nn.Spec{
		Name: "own-round", InputDim: 6,
		Layers: []nn.LayerSpec{
			{Type: "dense", Name: "d1", In: 6, Out: 8},
			{Type: "act", Act: nn.ActTanh},
			{Type: "round", Name: "r1", Fmt: "bf16"},
			{Type: "dense", Name: "d2", In: 8, Out: 3},
		},
	}, 5)
}

// quantizer is one of the package's four entry points at a fixed
// setting.
type quantizer struct {
	name string
	run  func(*nn.Network) (*nn.Network, error)
}

func mixedAssignment(net *nn.Network) []numfmt.Format {
	cycle := []numfmt.Format{numfmt.FP16, numfmt.INT8, numfmt.BF16, numfmt.FP8E4M3, numfmt.TF32, numfmt.FP32, numfmt.FP8E5M2}
	a := make([]numfmt.Format, len(net.LinearOps()))
	for i := range a {
		a[i] = cycle[i%len(cycle)]
	}
	return a
}

var quantizers = []quantizer{
	{"Quantize", func(n *nn.Network) (*nn.Network, error) { return Quantize(n, numfmt.FP16) }},
	{"QuantizeGroupedINT8", func(n *nn.Network) (*nn.Network, error) { return QuantizeGroupedINT8(n, numfmt.PerRow, 0) }},
	{"QuantizeMixed", func(n *nn.Network) (*nn.Network, error) { return QuantizeMixed(n, mixedAssignment(n)) }},
	{"QuantizeActivations", func(n *nn.Network) (*nn.Network, error) {
		return QuantizeActivations(n, numfmt.INT8, numfmt.FP16)
	}},
}

// nonLinearParams lists, in forward order, the parameters of every layer
// that is not a dense or conv layer (descending into residual and skip
// blocks). Inserted round layers carry none, so an activation-quantized
// copy lists the same parameters as its original.
func nonLinearParams(ls []nn.Layer) []*nn.Param {
	var out []*nn.Param
	for _, l := range ls {
		switch t := l.(type) {
		case *nn.Dense, *nn.Conv2D:
		case *nn.Residual:
			out = append(out, nonLinearParams(t.Branch)...)
			out = append(out, nonLinearParams(t.Shortcut)...)
		case *nn.SkipConcat:
			out = append(out, nonLinearParams(t.Branch)...)
		default:
			out = append(out, l.Params()...)
		}
	}
	return out
}

// TestQuantizersCopyNonLinearLayers: every quantizer rounds only dense
// and conv weights. Trained BatchNorm statistics, attention projections
// and everything else a layer holds reach the copy bit for bit, and a
// network with a round layer of its own is accepted by all four.
func TestQuantizersCopyNonLinearLayers(t *testing.T) {
	nets := []struct {
		name string
		net  *nn.Network
	}{
		{"bn-trained", trainedBNNet(t)},
		{"attn", buildSpec(t, goldenSpec(t, "attn"), 7)},
		{"own-round", ownRoundNet(t)},
	}
	for _, q := range quantizers {
		for _, tc := range nets {
			t.Run(q.name+"/"+tc.name, func(t *testing.T) {
				got, err := q.run(tc.net)
				if err != nil {
					t.Fatalf("%s refused %s: %v", q.name, tc.name, err)
				}
				want, have := nonLinearParams(tc.net.Layers), nonLinearParams(got.Layers)
				if len(want) != len(have) {
					t.Fatalf("%d non-linear parameters, want %d", len(have), len(want))
				}
				for i, p := range want {
					if !bitsEqual(p.Data, have[i].Data) {
						t.Fatalf("parameter %s not copied bit for bit", p.Name)
					}
				}
			})
		}
	}
}

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

// pinnedQuantized holds the byte length and CRC32C of nn.Save of each
// quantizer's output on the golden specs built at seed 7, recorded
// before the four layer walkers became one. Quantize covers every golden
// spec at every format; the other three cover the specs with no
// attention and no round layer, which the old walkers mishandled.
var pinnedQuantized = map[string]string{
	"Quantize/attn/bf16":                      "1066:b6867e74",
	"Quantize/attn/fp16":                      "1066:f00dadc9",
	"Quantize/attn/fp32":                      "1066:a4426908",
	"Quantize/attn/fp8e4m3":                   "1066:fd5a5b22",
	"Quantize/attn/fp8e5m2":                   "1066:8b60316b",
	"Quantize/attn/int8":                      "1066:2040d308",
	"Quantize/attn/tf32":                      "1066:f00dadc9",
	"Quantize/bn-pool-round/bf16":             "2644:4a199ef8",
	"Quantize/bn-pool-round/fp16":             "2644:008557be",
	"Quantize/bn-pool-round/fp32":             "2644:afa777da",
	"Quantize/bn-pool-round/fp8e4m3":          "2644:4294b541",
	"Quantize/bn-pool-round/fp8e5m2":          "2644:a3513f68",
	"Quantize/bn-pool-round/int8":             "2644:2ee63992",
	"Quantize/bn-pool-round/tf32":             "2644:008557be",
	"Quantize/mlp-gelu/bf16":                  "2786:aff87847",
	"Quantize/mlp-gelu/fp16":                  "2786:09b78366",
	"Quantize/mlp-gelu/fp32":                  "2786:08ca5995",
	"Quantize/mlp-gelu/fp8e4m3":               "2786:8bb8a1bb",
	"Quantize/mlp-gelu/fp8e5m2":               "2786:b981cca5",
	"Quantize/mlp-gelu/int8":                  "2786:48926f0f",
	"Quantize/mlp-gelu/tf32":                  "2786:09b78366",
	"Quantize/mlp-psn/bf16":                   "4243:4176d69a",
	"Quantize/mlp-psn/fp16":                   "4243:3881ec30",
	"Quantize/mlp-psn/fp32":                   "4243:d988dfbb",
	"Quantize/mlp-psn/fp8e4m3":                "4243:d54abce5",
	"Quantize/mlp-psn/fp8e5m2":                "4243:6f5bcd48",
	"Quantize/mlp-psn/int8":                   "4243:b54e9236",
	"Quantize/mlp-psn/tf32":                   "4243:3881ec30",
	"Quantize/mlp-sig/bf16":                   "1200:c66f9347",
	"Quantize/mlp-sig/fp16":                   "1200:03328caa",
	"Quantize/mlp-sig/fp32":                   "1200:052525a0",
	"Quantize/mlp-sig/fp8e4m3":                "1200:59c8f6f7",
	"Quantize/mlp-sig/fp8e5m2":                "1200:02c70fb1",
	"Quantize/mlp-sig/int8":                   "1200:3868558e",
	"Quantize/mlp-sig/tf32":                   "1200:03328caa",
	"Quantize/resnet/bf16":                    "11443:29a1a567",
	"Quantize/resnet/fp16":                    "11443:eee7cdc6",
	"Quantize/resnet/fp32":                    "11443:cdff8a49",
	"Quantize/resnet/fp8e4m3":                 "11443:c8daa79a",
	"Quantize/resnet/fp8e5m2":                 "11443:907a07b3",
	"Quantize/resnet/int8":                    "11443:1c2b57ef",
	"Quantize/resnet/tf32":                    "11443:eee7cdc6",
	"Quantize/unet/bf16":                      "7830:6d1717b6",
	"Quantize/unet/fp16":                      "7830:a7f75d91",
	"Quantize/unet/fp32":                      "7830:e90ff5bf",
	"Quantize/unet/fp8e4m3":                   "7830:e67c5770",
	"Quantize/unet/fp8e5m2":                   "7830:832b9b1e",
	"Quantize/unet/int8":                      "7830:69ee1097",
	"Quantize/unet/tf32":                      "7830:a7f75d91",
	"QuantizeActivations/mlp-gelu/fp32-fp16":  "2816:81271c8a",
	"QuantizeActivations/mlp-gelu/int8-bf16":  "2816:4e6a5517",
	"QuantizeActivations/mlp-psn/fp32-fp16":   "4303:4734b89a",
	"QuantizeActivations/mlp-psn/int8-bf16":   "4303:5d442899",
	"QuantizeActivations/mlp-sig/fp32-fp16":   "1230:1573b63d",
	"QuantizeActivations/mlp-sig/int8-bf16":   "1230:00702981",
	"QuantizeActivations/resnet/fp32-fp16":    "11593:c58e2587",
	"QuantizeActivations/resnet/int8-bf16":    "11593:3fefedb2",
	"QuantizeActivations/unet/fp32-fp16":      "7920:d71691cc",
	"QuantizeActivations/unet/int8-bf16":      "7920:6399948a",
	"QuantizeGroupedINT8/mlp-gelu/per-block":  "2786:1baa9dc3",
	"QuantizeGroupedINT8/mlp-gelu/per-column": "2786:c1a46a04",
	"QuantizeGroupedINT8/mlp-gelu/per-row":    "2786:008d4d07",
	"QuantizeGroupedINT8/mlp-gelu/per-tensor": "2786:48926f0f",
	"QuantizeGroupedINT8/mlp-psn/per-block":   "4243:0fc38926",
	"QuantizeGroupedINT8/mlp-psn/per-column":  "4243:37af8bb0",
	"QuantizeGroupedINT8/mlp-psn/per-row":     "4243:f9425666",
	"QuantizeGroupedINT8/mlp-psn/per-tensor":  "4243:b54e9236",
	"QuantizeGroupedINT8/mlp-sig/per-block":   "1200:e5ae4127",
	"QuantizeGroupedINT8/mlp-sig/per-column":  "1200:c7f5205f",
	"QuantizeGroupedINT8/mlp-sig/per-row":     "1200:e2eb1d56",
	"QuantizeGroupedINT8/mlp-sig/per-tensor":  "1200:3868558e",
	"QuantizeGroupedINT8/resnet/per-block":    "11443:12a3546f",
	"QuantizeGroupedINT8/resnet/per-column":   "11443:ed6fcca8",
	"QuantizeGroupedINT8/resnet/per-row":      "11443:1aacc416",
	"QuantizeGroupedINT8/resnet/per-tensor":   "11443:1c2b57ef",
	"QuantizeGroupedINT8/unet/per-block":      "7830:ad3f17b3",
	"QuantizeGroupedINT8/unet/per-column":     "7830:ea7d9d27",
	"QuantizeGroupedINT8/unet/per-row":        "7830:90f9a648",
	"QuantizeGroupedINT8/unet/per-tensor":     "7830:69ee1097",
	"QuantizeMixed/mlp-gelu":                  "2786:5d744d2d",
	"QuantizeMixed/mlp-psn":                   "4243:1b38ba06",
	"QuantizeMixed/mlp-sig":                   "1200:b55d1510",
	"QuantizeMixed/resnet":                    "11443:38d4fe32",
	"QuantizeMixed/unet":                      "7830:8dc70a97",
}

func quantizedRows(t *testing.T) map[string]func() (*nn.Network, error) {
	rows := map[string]func() (*nn.Network, error){}
	formats := []numfmt.Format{numfmt.FP32, numfmt.TF32, numfmt.FP16, numfmt.BF16, numfmt.INT8, numfmt.FP8E4M3, numfmt.FP8E5M2}
	for _, s := range goldenSpecs() {
		net := buildSpec(t, s, 7)
		for _, f := range formats {
			f := f
			rows[fmt.Sprintf("Quantize/%s/%s", s.Name, f)] = func() (*nn.Network, error) { return Quantize(net, f) }
		}
		if s.Name == "attn" || s.Name == "bn-pool-round" {
			continue
		}
		for _, g := range numfmt.Granularities {
			g := g
			rows[fmt.Sprintf("QuantizeGroupedINT8/%s/%s", s.Name, g)] = func() (*nn.Network, error) {
				return QuantizeGroupedINT8(net, g, 16)
			}
		}
		rows["QuantizeMixed/"+s.Name] = func() (*nn.Network, error) { return QuantizeMixed(net, mixedAssignment(net)) }
		for _, wa := range [][2]numfmt.Format{{numfmt.FP32, numfmt.FP16}, {numfmt.INT8, numfmt.BF16}} {
			wa := wa
			rows[fmt.Sprintf("QuantizeActivations/%s/%s-%s", s.Name, wa[0], wa[1])] = func() (*nn.Network, error) {
				return QuantizeActivations(net, wa[0], wa[1])
			}
		}
	}
	return rows
}

// TestQuantizedBytesPinned: the quantized copies are byte-identical to
// the ones the per-quantizer walkers produced.
func TestQuantizedBytesPinned(t *testing.T) {
	rows := quantizedRows(t)
	for name, run := range rows {
		q, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := q.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		got := fmt.Sprintf("%d:%08x", buf.Len(), integrity.Checksum(buf.Bytes()))
		if want, ok := pinnedQuantized[name]; !ok || got != want {
			t.Errorf("%s: saved copy %s, pinned %q", name, got, want)
		}
	}
	if len(rows) != len(pinnedQuantized) {
		t.Errorf("%d rows, %d pinned", len(rows), len(pinnedQuantized))
	}
}
