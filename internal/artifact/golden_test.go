package artifact

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// The golden artifact pins the on-disk byte format: building the same
// seeded network at the same format must reproduce the checked-in file
// exactly, and the checked-in file must decode and re-encode to itself
// byte for byte. Any layout change — field order, row layout, step
// table order — fails loudly here and means a magic bump, not a silent
// drift. Regenerate deliberately with
//
//	go test ./internal/artifact -run TestGoldenArtifact -update
var updateGolden = flag.Bool("update", false, "rewrite the golden artifact fixture")

func goldenArtifact(t testing.TB) *Artifact {
	t.Helper()
	// A PSN residual conv net at INT8 exercises every part of the body:
	// quantized conv and dense weights, a graph with residual nodes,
	// dense rows with row norms, conv rows without, and nontrivial step
	// tables.
	net := buildNet(t, nn.ResNetSpec("golden", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, nn.ActReLU, true))
	art, err := Build(net, numfmt.INT8)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return art
}

func TestGoldenArtifact(t *testing.T) {
	art := goldenArtifact(t)
	raw, err := art.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	path := filepath.Join("testdata", "v2.aot")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("artifact bytes drifted from golden: got %d bytes, want %d. A layout change needs a new magic, not a regenerated fixture.", len(raw), len(want))
	}

	// Decode -> encode bijection on the checked-in bytes themselves.
	dec, err := Decode(want)
	if err != nil {
		t.Fatalf("golden fixture does not decode: %v", err)
	}
	re, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, want) {
		t.Fatal("golden fixture decode -> encode is not byte-identical")
	}
	if dec.Checksum != art.Checksum {
		t.Fatalf("golden checksum %s != rebuilt %s", dec.Checksum, art.Checksum)
	}
}

// TestV1Refused: a version-1 artifact (testdata/v1.aot, the last golden
// fixture of that version) is refused by every reader with ErrV1, which
// names the version and the way out — never read as a saved network,
// never half-trusted.
func TestV1Refused(t *testing.T) {
	path := filepath.Join("testdata", "v1.aot")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !SniffMagic(raw) {
		t.Fatal("a version-1 file is not recognised as an artifact")
	}
	_, decErr := Decode(raw)
	_, readErr := ReadFile(path)
	_, built, loadErr := Load(path, numfmt.FP16)
	for name, err := range map[string]error{"Decode": decErr, "ReadFile": readErr, "Load": loadErr} {
		if !errors.Is(err, ErrV1) {
			t.Fatalf("%s: %v, want ErrV1", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "errpropd -compile") {
			t.Fatalf("%s: refusal %q does not name version 1 and errpropd -compile", name, msg)
		}
	}
	if built || !strings.Contains(loadErr.Error(), path) {
		t.Fatalf("Load: built=%v, err %v: want a refusal naming the file", built, loadErr)
	}
}
