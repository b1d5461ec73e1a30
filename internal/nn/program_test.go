package nn

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestProgramRoundTrip pins the compile/bind split: for every golden
// architecture, compiling twice yields the same Program, and an engine
// bound from it to a separately decoded copy of the network — as an
// artifact's is — replays the exact op schedule (same program dump,
// bit-identical Forward) of one compiled directly from the network.
func TestProgramRoundTrip(t *testing.T) {
	for _, spec := range goldenInferSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			p, err := CompileProgram(net)
			if err != nil {
				t.Fatalf("CompileProgram: %v", err)
			}
			again, err := CompileProgram(net)
			if err != nil {
				t.Fatalf("CompileProgram: %v", err)
			}
			if !reflect.DeepEqual(p, again) {
				t.Fatal("compiling the same network twice gave different programs")
			}
			var saved bytes.Buffer
			if err := net.Save(&saved); err != nil {
				t.Fatalf("Save: %v", err)
			}
			copyNet, err := DecodeModel(saved.Bytes())
			if err != nil {
				t.Fatalf("DecodeModel: %v", err)
			}

			direct, err := CompileInference(net, 8)
			if err != nil {
				t.Fatalf("CompileInference: %v", err)
			}
			bound, err := p.Bind(copyNet, 8, 1)
			if err != nil {
				t.Fatalf("Bind: %v", err)
			}
			if got, want := strings.Join(bound.Program(), "\n"), strings.Join(direct.Program(), "\n"); got != want {
				t.Fatalf("bound program dump differs from direct compile:\n%s\nvs\n%s", got, want)
			}
			rng := rand.New(rand.NewSource(23))
			for _, batch := range []int{1, 5, 8} {
				x := randInferBatch(rng, spec.InputDim, batch)
				want := net.Forward(x, false)
				got := bound.Forward(x)
				if !bitEqual(got.Data, want.Data) {
					t.Fatalf("batch %d: bound-engine output not bit-identical", batch)
				}
			}
		})
	}
}

// TestProgramBindRejectsMismatchedNetwork: binding a program against a
// structurally different network, or for any lane count but 1, must
// fail typed, never run.
func TestProgramBindRejectsMismatchedNetwork(t *testing.T) {
	mlp := buildGolden(t, MLPSpec("a", []int{9, 16, 12, 9}, ActTanh, true), 7)
	p, err := CompileProgram(mlp)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	other := buildGolden(t, MLPSpec("b", []int{9, 12, 9}, ActTanh, false), 7)
	if _, err := p.Bind(other, 8, 1); err == nil {
		t.Fatal("binding against a structurally different network must fail")
	}
	wrongDim := buildGolden(t, MLPSpec("c", []int{6, 10, 4}, ActSigmoid, false), 7)
	if _, err := p.Bind(wrongDim, 8, 1); err == nil {
		t.Fatal("binding against a different input width must fail")
	}
	for _, lanes := range []int{0, 2, -1} {
		if _, err := p.Bind(mlp, 8, lanes); err == nil || !strings.Contains(err.Error(), "lanes") {
			t.Fatalf("lanes %d: got %v, want a lanes refusal", lanes, err)
		}
	}
}
