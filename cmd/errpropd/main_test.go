package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/integrity"
)

func TestParseModelFlag(t *testing.T) {
	m, err := parseModelFlag("h2=/tmp/h2.model")
	if err != nil || m.name != "h2" || m.path != "/tmp/h2.model" {
		t.Fatalf("got %+v, %v", m, err)
	}
	for _, bad := range []string{"", "h2", "=path", "h2="} {
		if _, err := parseModelFlag(bad); err == nil {
			t.Errorf("parseModelFlag(%q) accepted", bad)
		}
	}
	// Paths containing '=' keep everything after the first separator.
	m, err = parseModelFlag("m=/a/b=c.model")
	if err != nil || m.path != "/a/b=c.model" {
		t.Fatalf("got %+v, %v", m, err)
	}
}

func TestDemoNetwork(t *testing.T) {
	net, err := demoNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if net.InputDim != 9 {
		t.Fatalf("demo input dim %d, want 9", net.InputDim)
	}
	if _, err := net.Clone(); err != nil {
		t.Fatalf("demo model must be servable (clonable): %v", err)
	}
}

// TestRunCorruptModelFile: a model file whose bytes fail the container
// checksum must abort startup with an error that names the file and
// carries the typed integrity error — not serve garbage weights.
func TestRunCorruptModelFile(t *testing.T) {
	net, err := demoNetwork()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20 // flip one payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = run([]string{"-model", "demo=" + path, "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("run served a model whose file failed its checksum")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("startup error does not name the bad file: %v", err)
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("startup error is not the typed integrity error: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("run with nothing to serve must fail")
	}
	if err := run([]string{"-demo", "-format", "fp13"}); err == nil || !strings.Contains(err.Error(), `"fp13"`) {
		t.Fatalf("run with unknown format: %v, want a refusal naming it", err)
	}
	if err := run([]string{"-model", "x=/nonexistent.model", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("run with a missing model file must fail")
	}
}
