package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	errprop "github.com/scidata/errprop"
	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/integrity"
)

// TestCompileProducesLoadableArtifact: -compile is the blessed producer;
// its output must decode, carry the requested format, and round-trip
// into RegisterArtifact.
func TestCompileProducesLoadableArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-compile", "-demo", "-format", "int8", "-out", dir}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	path := filepath.Join(dir, "demo.aot")
	art, err := errprop.ReadArtifactFile(path)
	if err != nil {
		t.Fatalf("reading compiled artifact: %v", err)
	}
	if art.Format != errprop.INT8 {
		t.Fatalf("artifact format %s, want int8", art.Format)
	}
	srv := errprop.NewServer(errprop.ServeConfig{Workers: 1})
	defer srv.Close()
	if err := srv.RegisterArtifact("demo", art); err != nil {
		t.Fatalf("RegisterArtifact: %v", err)
	}

	// Compiling an artifact again is refused, not double-wrapped.
	if err := run([]string{"-compile", "-model", "demo=" + path, "-format", "int8", "-out", dir}); err == nil {
		t.Fatal("compiling an artifact must fail")
	}
	if err := run([]string{"-compile"}); err == nil {
		t.Fatal("compile with nothing to compile must fail")
	}
}

// TestCompileFP8Formats: every format the artifact carries step tables
// for is accepted by -format, case-insensitively, and the written
// artifact decodes at that format.
func TestCompileFP8Formats(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{{"fp8e4m3", "fp8e4m3"}, {"FP8E5M2", "fp8e5m2"}} {
		dir := t.TempDir()
		if err := run([]string{"-compile", "-demo", "-format", tc.flag, "-out", dir}); err != nil {
			t.Fatalf("compile -format %s: %v", tc.flag, err)
		}
		art, err := errprop.ReadArtifactFile(filepath.Join(dir, "demo.aot"))
		if err != nil {
			t.Fatalf("reading %s artifact: %v", tc.flag, err)
		}
		if art.Format.String() != tc.want {
			t.Fatalf("-format %s compiled at %s, want %s", tc.flag, art.Format, tc.want)
		}
	}
}

// TestRunCorruptArtifactRefusesBoot: a damaged artifact is a typed boot
// refusal naming the file — never a silently served model.
func TestRunCorruptArtifactRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-compile", "-demo", "-format", "fp16", "-out", dir}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	path := filepath.Join(dir, "demo.aot")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-model", "demo=" + path, "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("run served a corrupt artifact")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("boot refusal does not name the artifact file: %v", err)
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("boot refusal is not the typed integrity error: %v", err)
	}
}

// TestRunV1ArtifactRefusesBoot: a version-1 artifact is a typed boot
// refusal naming the file and the way out (errpropd -compile), not a
// model read some other way.
func TestRunV1ArtifactRefusesBoot(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "artifact", "testdata", "v1.aot")
	err := run([]string{"-model", "x=" + path, "-addr", "127.0.0.1:0"})
	if !errors.Is(err, artifact.ErrV1) {
		t.Fatalf("boot on a version-1 artifact: %v, want artifact.ErrV1", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "errpropd -compile") {
		t.Fatalf("boot refusal does not name the file and errpropd -compile: %v", err)
	}
}
