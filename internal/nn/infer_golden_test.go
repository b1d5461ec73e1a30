package nn

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden-file regression for compiled op programs: the engine compiler's
// decisions — op selection, arena slot assignment, activation fusion —
// determine exactly which float schedule runs in production, so a silent
// change to any of them must be loud. Each golden pins the Program()
// dump for a fixed golden spec; regenerate deliberately with
//
//	go test ./internal/nn -run TestGoldenEnginePrograms -update
//
// and review the diff like any other code change (a fusion that
// disappears, a slot that moves, an op that changes kind).
var updatePrograms = flag.Bool("update", false, "rewrite golden program dumps with current compiler output")

// goldenProgramSpecs covers the compiler's distinct regimes: a PSN MLP
// (dense + fused act), a conv/residual net (direct conv, shortcut
// compilation, fused residual act), a BN/pool/round stack (fusion
// barriers: round and maxpool are not fusable), and the attention block.
func goldenProgramSpecs() []*Spec {
	all := goldenInferSpecs()
	want := map[string]bool{"mlp-psn": true, "resnet": true, "bn-pool-round": true, "attn": true}
	out := make([]*Spec, 0, len(want))
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

func TestGoldenEnginePrograms(t *testing.T) {
	for _, spec := range goldenProgramSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			eng, err := CompileInference(net, 8)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got := strings.Join(eng.Program(), "\n") + "\n"
			path := filepath.Join("testdata", "golden", spec.Name+".program")
			if *updatePrograms {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("compiled program drifted from golden %s.\ngot:\n%s\nwant:\n%s\nIf intentional, regenerate with -update and review the diff.",
					spec.Name, got, want)
			}
		})
	}
}
