package main

import (
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
		format: "fp16", demo: true,
		models:   []modelFlag{{name: "h2", path: "/m/h2.model"}},
		maxBatch: 16, queueCap: 256,
		workers: 2, timeout: 4 * time.Second,
	})
	want := []string{
		"-format", "fp16",
		"-max-batch", "16",
		"-queue", "256",
		"-workers", "2",
		"-timeout", "4s",
		"-demo",
		"-model", "h2=/m/h2.model",
	}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("backendArgs:\n got  %q\n want %q", args, want)
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
