package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestProgramRoundTrip pins the compile/bind split: for every golden
// architecture the program must survive EncodeBinary/DecodeProgram byte
// for byte, and an engine bound from the decoded program must replay the
// exact op schedule — same program dump, bit-identical Forward — as one
// compiled directly from the network.
func TestProgramRoundTrip(t *testing.T) {
	for _, spec := range goldenInferSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			p, err := CompileProgram(net)
			if err != nil {
				t.Fatalf("CompileProgram: %v", err)
			}
			raw := p.EncodeBinary()
			p2, err := DecodeProgram(raw)
			if err != nil {
				t.Fatalf("DecodeProgram: %v", err)
			}
			if !bytes.Equal(p2.EncodeBinary(), raw) {
				t.Fatal("decode -> re-encode is not byte-identical")
			}

			direct, err := p.Bind(net, 8, 1)
			if err != nil {
				t.Fatalf("Bind original: %v", err)
			}
			bound, err := p2.Bind(net, 8, 1)
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

// TestDecodeProgramRejectsDamage: truncation, trailing bytes, and
// unknown kinds are typed decode failures.
func TestDecodeProgramRejectsDamage(t *testing.T) {
	net := buildGolden(t, MLPSpec("d", []int{4, 6, 2}, ActReLU, false), 3)
	p, err := CompileProgram(net)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	raw := p.EncodeBinary()
	if _, err := DecodeProgram(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated program must not decode")
	}
	if _, err := DecodeProgram(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
	mangled := append([]byte{}, raw...)
	// First op's kind byte sits right after the 4 header words, the slot
	// table, and the op count.
	kindOff := 4*4 + 4*len(p.SlotRows) + 4
	mangled[kindOff] = 0xee
	if _, err := DecodeProgram(mangled); err == nil {
		t.Fatal("unknown op kind must not decode")
	}
}
