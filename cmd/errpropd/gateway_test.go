package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	errprop "github.com/scidata/errprop"
	"github.com/scidata/errprop/internal/integrity"
)

func TestBackendArgsRoundTrip(t *testing.T) {
	args := backendArgs(backendFlags{
		maxBatch: 16, queueCap: 256,
		workers: 2, timeout: 4 * time.Second,
	}, []errprop.GatewayArtifactRef{
		{Model: "h2", Path: "/s/h2.aot", Checksum: "crc32c:0123abcd"},
		{Model: "demo", Path: "/s/demo.aot", Checksum: "crc32c:89abcdef"},
	})
	want := []string{
		"-max-batch", "16",
		"-queue", "256",
		"-workers", "2",
		"-timeout", "4s",
		"-model", "h2=/s/h2.aot",
		"-model", "demo=/s/demo.aot",
	}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("backendArgs:\n got  %q\n want %q", args, want)
	}
}

// TestPinModels: spawn mode resolves each model once. -demo and a
// saved network become .aot files byte-identical to what -compile
// writes at the same format, an .aot input is referenced in place, and
// a corrupt .aot is a typed integrity refusal before any child starts.
func TestPinModels(t *testing.T) {
	net, err := demoNetwork()
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	spec := filepath.Join(src, "h2.model")
	f, err := os.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	compiled := t.TempDir()
	if err := run([]string{"-compile", "-model", "h2=" + spec, "-demo", "-format", "int8", "-out", compiled}); err != nil {
		t.Fatalf("compile: %v", err)
	}

	dir := t.TempDir()
	aot := filepath.Join(compiled, "h2.aot")
	refs, err := pinModels(dir, []modelFlag{{name: "h2", path: spec}, {name: "demo"}, {name: "pre", path: aot}}, errprop.INT8)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"h2", "demo"} {
		want, err := os.ReadFile(filepath.Join(compiled, name+".aot"))
		if err != nil {
			t.Fatal(err)
		}
		if refs[i].Model != name || refs[i].Path != filepath.Join(dir, name+".aot") {
			t.Fatalf("ref %d = %+v, want model %s built into %s", i, refs[i], name, dir)
		}
		got, err := os.ReadFile(refs[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pinned artifact differs from what -compile writes", name)
		}
		art, err := errprop.DecodeArtifact(want)
		if err != nil {
			t.Fatal(err)
		}
		if refs[i].Checksum != art.Checksum {
			t.Fatalf("%s: pinned checksum %s, -compile wrote %s", name, refs[i].Checksum, art.Checksum)
		}
	}
	if refs[2].Model != "pre" || refs[2].Path != aot || refs[2].Checksum != refs[0].Checksum {
		t.Fatalf("an .aot input must be pinned in place: %+v", refs[2])
	}
	if _, err := os.Stat(filepath.Join(dir, "pre.aot")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("an .aot input was copied into the scratch dir: %v", err)
	}

	raw, err := os.ReadFile(aot)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	bad := filepath.Join(src, "bad.aot")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A child of this test binary could never serve, so the typed
	// integrity error can only come from the supervisor's own check.
	err = run([]string{"-gateway", "-spawn", "2", "-model", "bad=" + bad, "-addr", "127.0.0.1:0"})
	if !errors.Is(err, integrity.ErrCorrupt) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("spawn over a corrupt artifact: %v, want a typed refusal naming %s", err, bad)
	}
}

func TestRunGatewayRejectsBadFlags(t *testing.T) {
	// -spawn / -registry are gateway-only.
	if err := run([]string{"-spawn", "2", "-demo"}); err == nil {
		t.Fatal("-spawn without -gateway must fail")
	}
	if err := run([]string{"-registry", "/tmp/x.reg", "-demo"}); err == nil {
		t.Fatal("-registry without -gateway must fail")
	}
	// A gateway needs exactly one fleet source.
	if err := run([]string{"-gateway"}); err == nil {
		t.Fatal("-gateway with no fleet source must fail")
	}
	if err := run([]string{"-gateway", "-spawn", "2", "-registry", "/tmp/x.reg"}); err == nil {
		t.Fatal("-gateway with two fleet sources must fail")
	}
	// A spawned fleet needs a model; the supervisor refuses before
	// spawning anything.
	if err := run([]string{"-gateway", "-spawn", "2"}); err == nil || !strings.Contains(err.Error(), "nothing to serve") {
		t.Fatalf("-spawn with no model: %v, want a nothing-to-serve refusal", err)
	}
}

// TestRunGatewayRefusesCorruptRegistry: boot-time registry integrity is
// a hard failure, typed — the daemon must not come up routing nowhere.
func TestRunGatewayRefusesCorruptRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.reg")
	reg := &errprop.GatewayRegistry{Backends: []errprop.GatewayBackend{
		{Name: "b0", Addr: "127.0.0.1:9001", Weight: 1},
	}}
	if err := errprop.WriteGatewayRegistry(path, reg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-gateway", "-registry", path, "-addr", "127.0.0.1:0"})
	if err == nil {
		t.Fatal("gateway booted on a corrupt registry")
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("corrupt-registry boot error is not typed: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("boot error does not name the registry file: %v", err)
	}
}
