package artifact

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

func testSpecs() []*nn.Spec {
	return []*nn.Spec{
		nn.MLPSpec("mlp-psn", []int{9, 16, 12, 9}, nn.ActTanh, true),
		nn.MLPSpec("mlp-sig", []int{6, 10, 4}, nn.ActSigmoid, false),
		nn.ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, nn.ActReLU, true),
		nn.UNetSpec("unet", 2, 8, 8, 3, 4, nn.ActReLU, true),
	}
}

func buildNet(t testing.TB, s *nn.Spec) *nn.Network {
	t.Helper()
	net, err := s.Build(7)
	if err != nil {
		t.Fatalf("building %s: %v", s.Name, err)
	}
	return net
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

var testFormats = []numfmt.Format{numfmt.FP32, numfmt.TF32, numfmt.FP16, numfmt.BF16, numfmt.INT8}

// TestBuildDecodeRoundTrip pins the artifact contract: encode/decode is
// a byte bijection, the decoded engine replays the serving network bit
// for bit, the built and decoded error-flow graphs are the same graph,
// and the plan (graph + step tables + bound) agrees exactly with a fresh
// from-weights analysis.
func TestBuildDecodeRoundTrip(t *testing.T) {
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildNet(t, spec)
			for _, f := range testFormats {
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
				re, err := dec.Encode()
				if err != nil {
					t.Fatalf("%s: re-Encode: %v", f, err)
				}
				if !bytes.Equal(re, raw) {
					t.Fatalf("%s: decode -> encode is not byte-identical", f)
				}
				if dec.Checksum != art.Checksum || dec.Checksum == "" {
					t.Fatalf("%s: checksum %q != built %q", f, dec.Checksum, art.Checksum)
				}
				if dec.Format != f {
					t.Fatalf("%s: decoded format %s", f, dec.Format)
				}
				if !bytes.Equal(dumpRoot(dec), dumpRoot(art)) {
					t.Fatalf("%s: decoded error-flow graph differs from the built one", f)
				}

				// Cold-start path: bind the derived program to the shipped
				// weights; must equal a from-scratch compile of the serving
				// network bit for bit.
				fromArt, err := dec.Program.Bind(dec.Net, 8, 1)
				if err != nil {
					t.Fatalf("%s: Bind: %v", f, err)
				}
				fresh, err := nn.CompileInference(art.Net, 8)
				if err != nil {
					t.Fatalf("%s: fresh compile: %v", f, err)
				}
				rng := rand.New(rand.NewSource(11))
				for _, batch := range []int{1, 8} {
					x := tensor.NewMatrix(net.InputDim, batch)
					for i := range x.Data {
						x.Data[i] = rng.NormFloat64()
					}
					if !bitsEqual(fromArt.Forward(x).Data, fresh.Forward(x).Data) {
						t.Fatalf("%s: artifact engine output diverges from fresh compile", f)
					}
				}

				// The shipped bound must equal the from-weights analysis.
				an, err := core.AnalyzeNetwork(net, f)
				if err != nil {
					t.Fatalf("%s: AnalyzeNetwork: %v", f, err)
				}
				if math.Float64bits(dec.QuantBound) != math.Float64bits(an.QuantizationBound()) {
					t.Fatalf("%s: artifact bound %v != fresh analysis %v", f, dec.QuantBound, an.QuantizationBound())
				}

				// Planning from the artifact's graph and step tables must
				// reproduce from-weights planning exactly.
				for _, req := range []core.PlanRequest{
					{Tol: 0.5, Norm: core.NormL2, QuantFraction: 0.5},
					{Tol: 0.05, Norm: core.NormLinf, QuantFraction: 0.3, Conservative: true},
				} {
					want, err := core.PlanNetwork(net, req)
					if err != nil {
						t.Fatalf("%s: PlanNetwork: %v", f, err)
					}
					got, err := core.PlanGraphSteps(dec.Root, dec.StepsFor, req)
					if err != nil {
						t.Fatalf("%s: PlanGraphSteps: %v", f, err)
					}
					if *got != *want {
						t.Fatalf("%s: artifact plan %+v != fresh plan %+v", f, got, want)
					}
				}
			}
		})
	}
}

// TestStepsFor pins the step-table contract.
func TestStepsFor(t *testing.T) {
	net := buildNet(t, nn.MLPSpec("m", []int{4, 6, 2}, nn.ActReLU, false))
	art, err := Build(net, numfmt.INT8)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if sf, err := art.StepsFor(numfmt.FP32); err != nil || sf != nil {
		t.Fatalf("FP32 must yield (nil, nil), got (%v, %v)", sf, err)
	}
	linear := art.Root.LinearNodes()
	for _, f := range stepFormats {
		sf, err := art.StepsFor(f)
		if err != nil {
			t.Fatalf("StepsFor(%s): %v", f, err)
		}
		// The table must reproduce a live StepSize against the original
		// weights exactly — the graph carries no weights, so rebuild the
		// same network and compare per layer.
		live := buildNet(t, nn.MLPSpec("m", []int{4, 6, 2}, nn.ActReLU, false))
		liveRoot, err := core.FromNetwork(live)
		if err != nil {
			t.Fatalf("FromNetwork: %v", err)
		}
		liveNodes := liveRoot.LinearNodes()
		if len(liveNodes) != len(linear) {
			t.Fatalf("linear node count mismatch: %d vs %d", len(liveNodes), len(linear))
		}
		for i, nd := range linear {
			want := numfmt.StepSize(f, liveNodes[i].Op.Weights)
			if got := sf(nd.Op); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("StepsFor(%s) for %s: got %v want %v", f, nd.Op.LayerName, got, want)
			}
		}
	}
	if _, err := art.StepsFor(numfmt.Format(250)); err == nil {
		t.Fatal("unknown format must error")
	}
	// An op outside the artifact's graph poisons the bound instead of
	// silently under-reporting.
	sf, err := art.StepsFor(numfmt.INT8)
	if err != nil {
		t.Fatalf("StepsFor: %v", err)
	}
	if v := sf(&nn.LinearOp{LayerName: "foreign"}); !math.IsNaN(v) {
		t.Fatalf("foreign op must poison the step, got %v", v)
	}
}

// TestDecodeRejectsDamage: framing damage is a typed integrity error;
// CRC-consistent body tampering still cannot produce a silently wrong
// artifact (the canonical re-encode and the bound recompute each gate
// it).
func TestDecodeRejectsDamage(t *testing.T) {
	net := buildNet(t, nn.MLPSpec("m", []int{5, 8, 3}, nn.ActTanh, true))
	art, err := Build(net, numfmt.FP16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	raw, err := art.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	if _, err := Decode(raw[:len(Magic)+5]); !integrity.IsIntegrityError(err) {
		t.Fatalf("truncated header: want integrity error, got %v", err)
	}
	if _, err := Decode(raw[:len(raw)-7]); !integrity.IsIntegrityError(err) {
		t.Fatalf("truncated body: want integrity error, got %v", err)
	}
	if _, err := Decode(append(append([]byte{}, raw...), 0xab)); !integrity.IsIntegrityError(err) {
		t.Fatalf("trailing byte: want integrity error, got %v", err)
	}
	mangled := append([]byte{}, raw...)
	mangled[3] ^= 0xff
	if _, err := Decode(mangled); !integrity.IsIntegrityError(err) {
		t.Fatalf("bad magic: want integrity error, got %v", err)
	}

	// A body with a byte past the last row, or short of it, is refused
	// even under a valid frame: the derived structure fixes every row's
	// length.
	body := raw[len(Magic)+12:]
	if _, err := Decode(integrity.Frame(Magic, append(append([]byte{}, body...), 0))); !integrity.IsIntegrityError(err) {
		t.Fatalf("trailing body byte under a valid frame: want integrity error, got %v", err)
	}
	if _, err := Decode(integrity.Frame(Magic, body[:len(body)-8])); !integrity.IsIntegrityError(err) {
		t.Fatalf("short last row under a valid frame: want integrity error, got %v", err)
	}

	// Single bit flips anywhere in the body trip the CRC.
	for off := len(Magic) + 12; off < len(raw); off += 101 {
		flipped := append([]byte{}, raw...)
		flipped[off] ^= 0x10
		if _, err := Decode(flipped); err == nil {
			t.Fatalf("bit flip at %d decoded silently", off)
		}
	}

	// A tamperer who also fixes the CRC either trips a semantic gate
	// (canonical re-encode, bound recompute, the embedded model's own
	// frame) or has produced a *different* valid
	// artifact — whose checksum identity necessarily changed, so any
	// consumer pinning the original checksum still refuses it. Never a
	// silently-accepted corruption of *this* artifact.
	headerLen := len(Magic) + 12
	for off := headerLen; off < len(raw); off += 137 {
		patched := append([]byte{}, raw...)
		patched[off] ^= 0x04
		body := patched[headerLen:]
		crc := integrity.Checksum(body)
		patched[len(Magic)+8] = byte(crc)
		patched[len(Magic)+9] = byte(crc >> 8)
		patched[len(Magic)+10] = byte(crc >> 16)
		patched[len(Magic)+11] = byte(crc >> 24)
		dec, err := Decode(patched)
		if err != nil {
			continue
		}
		if dec.Checksum == art.Checksum {
			t.Fatalf("CRC-fixed tamper at offset %d kept the original checksum identity", off)
		}
		if re, err := dec.Encode(); err != nil || !bytes.Equal(re, patched) {
			t.Fatalf("CRC-fixed tamper at offset %d decoded to a non-canonical artifact (err %v)", off, err)
		}
	}
}

// TestWriteReadFile covers the atomic file path.
func TestWriteReadFile(t *testing.T) {
	net := buildNet(t, nn.MLPSpec("m", []int{4, 6, 2}, nn.ActGELU, false))
	art, err := Build(net, numfmt.BF16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.aot")
	if err := WriteFile(path, art); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Checksum != art.Checksum {
		t.Fatalf("checksum mismatch after file round trip")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !SniffMagic(raw) {
		t.Fatal("written file does not start with the artifact magic")
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupt file must not read")
	}
}

// TestLoad pins the one model-file loader: a saved network compiles in
// memory to exactly the artifact Build produces at the requested format,
// an artifact file decodes with its own format winning, and damage to
// either kind of file is a typed integrity error naming the file.
func TestLoad(t *testing.T) {
	net := buildNet(t, testSpecs()[0])
	dir := t.TempDir()
	specPath := filepath.Join(dir, "m.model")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := Build(net, numfmt.INT8)
	if err != nil {
		t.Fatal(err)
	}
	got, built, err := Load(specPath, numfmt.INT8)
	if err != nil || !built {
		t.Fatalf("Load(spec): built=%v err=%v", built, err)
	}
	if got.Checksum != want.Checksum {
		t.Fatalf("spec-loaded checksum %s != Build %s", got.Checksum, want.Checksum)
	}

	aotPath := filepath.Join(dir, "m.aot")
	if err := WriteFile(aotPath, want); err != nil {
		t.Fatal(err)
	}
	got, built, err = Load(aotPath, numfmt.FP16)
	if err != nil || built {
		t.Fatalf("Load(artifact): built=%v err=%v", built, err)
	}
	if got.Format != numfmt.INT8 || got.Checksum != want.Checksum {
		t.Fatalf("artifact file loaded as %s %s, want int8 %s", got.Format, got.Checksum, want.Checksum)
	}

	for _, path := range []string{specPath, aotPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Load(path, numfmt.INT8)
		if !integrity.IsIntegrityError(err) || !strings.Contains(err.Error(), path) {
			t.Fatalf("Load(corrupt %s): %v, want an integrity error naming the file", path, err)
		}
	}
}
