package integrity

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestWriteFileAtomic(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "a", "b", "rec.bin")
	for _, raw := range [][]byte{[]byte("first version"), []byte("v2")} {
		if err := WriteFileAtomic(path, raw); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("file holds %q (%v), want %q", got, err, raw)
		}
		if names := dirNames(t, filepath.Dir(path)); len(names) != 1 || names[0] != "rec.bin" {
			t.Fatalf("directory holds %v after a successful write, want only rec.bin", names)
		}
	}

	// A failed rename (the target is a directory) leaves no temp file and
	// leaves the target as it was.
	target := filepath.Join(root, "taken")
	if err := os.MkdirAll(filepath.Join(target, "inner"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if names := dirNames(t, root); len(names) != 2 || names[0] != "a" || names[1] != "taken" {
		t.Fatalf("failed write left %v, want [a taken]", names)
	}
	if names := dirNames(t, target); len(names) != 1 || names[0] != "inner" {
		t.Fatalf("failed write changed the target to %v", names)
	}
}

var testGens = Generations{Prefix: "gen-", Ext: ".rec"}

func decodeTest(raw []byte) (string, error) {
	_, body, _, err := Unframe(raw, 1<<10, testMagics[0])
	return string(body), err
}

func saveGens(t *testing.T, dir string, ns ...int64) {
	t.Helper()
	for _, n := range ns {
		if _, err := testGens.Save(dir, n, Frame(testMagics[0], []byte(testGens.Name(n)))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerationsNewestIntactWins(t *testing.T) {
	dir := t.TempDir()
	saveGens(t, dir, 3, 10, 7, 12)
	// The newest is torn and the next one bit-rotted: recovery lands on
	// generation 7.
	for _, d := range []struct {
		n      int64
		damage func([]byte) []byte
	}{
		{12, func(b []byte) []byte { return b[:len(b)-3] }},
		{10, func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
	} {
		p := filepath.Join(dir, testGens.Name(d.n))
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, d.damage(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, path, err := LoadNewest(testGens, dir, decodeTest)
	if err != nil || got != testGens.Name(7) || path != filepath.Join(dir, testGens.Name(7)) {
		t.Fatalf("LoadNewest = (%q, %s, %v), want generation 7", got, path, err)
	}

	// With every generation damaged the error wraps os.ErrNotExist and
	// names each skipped file.
	for _, n := range []int64{3, 7} {
		if err := os.WriteFile(filepath.Join(dir, testGens.Name(n)), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = LoadNewest(testGens, dir, decodeTest)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("all damaged: got %v, want os.ErrNotExist", err)
	}
	for _, n := range []int64{3, 7, 10, 12} {
		if !strings.Contains(err.Error(), testGens.Name(n)) {
			t.Fatalf("all-damaged error does not name %s: %v", testGens.Name(n), err)
		}
	}

	// An empty or missing directory is os.ErrNotExist too.
	for _, d := range []string{t.TempDir(), filepath.Join(dir, "missing")} {
		if _, _, err := LoadNewest(testGens, d, decodeTest); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: got %v, want os.ErrNotExist", d, err)
		}
	}
}

func TestGenerationsSurfaceOtherErrors(t *testing.T) {
	dir := t.TempDir()
	saveGens(t, dir, 1)
	// A decode failure that is not an integrity error stops the scan.
	boom := errors.New("boom")
	_, _, err := LoadNewest(testGens, dir, func([]byte) (string, error) { return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("decode error: got %v, want it surfaced", err)
	}
	// So does a read error: the newest generation name is a symlink to a
	// directory, and generation 1 behind it is never reached.
	if err := os.Symlink(t.TempDir(), filepath.Join(dir, testGens.Name(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadNewest(testGens, dir, decodeTest); err == nil || IsIntegrityError(err) || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read error: got %v, want the read error itself", err)
	}
}

func TestGenerationsListAndPrune(t *testing.T) {
	dir := t.TempDir()
	saveGens(t, dir, 1, 2, 3, 4, 5)
	// Clutter that is not a generation: an interrupted write's temp file,
	// non-canonical numbers, another prefix, a foreign file, and a
	// directory with a generation name.
	for _, name := range []string{
		testGens.Name(9) + ".tmp123", "gen-9.rec", "gen--00000000009.rec", "gen-0000000000009.rec",
		"old-000000000009.rec", "NOTES.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, testGens.Name(10)), 0o755); err != nil {
		t.Fatal(err)
	}
	list := func() []string {
		paths, err := testGens.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(paths))
		for i, p := range paths {
			names[i] = filepath.Base(p)
		}
		return names
	}
	want := []string{testGens.Name(5), testGens.Name(4), testGens.Name(3), testGens.Name(2), testGens.Name(1)}
	if got := list(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if err := testGens.Prune(dir, 0); err != nil {
		t.Fatal(err)
	}
	if got := list(); len(got) != 5 {
		t.Fatalf("Prune(0) left %v, want all 5", got)
	}
	if err := testGens.Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	if got := list(); strings.Join(got, " ") != strings.Join(want[:2], " ") {
		t.Fatalf("Prune(2) left %v, want %v", got, want[:2])
	}
	if got := dirNames(t, dir); len(got) != 2+7 {
		t.Fatalf("Prune touched a non-generation entry: %v", got)
	}
	if paths, err := testGens.List(filepath.Join(dir, "missing")); paths != nil || err != nil {
		t.Fatalf("missing dir: List = (%v, %v), want empty", paths, err)
	}
}
