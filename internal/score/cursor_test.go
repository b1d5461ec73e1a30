package score

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleCursor() *Cursor {
	return &Cursor{
		ManifestChecksum: 0xDEADBEEF,
		Committed:        7,
		ResultBytes:      1234,
		Agg: &Aggregate{
			Chunks: 7, Skipped: 1, Samples: 192, Elems: 1152, OverBudget: 2,
			StoredBytes: 900, RawBytes: 9216,
			SimRead: 3 * time.Millisecond, SimDecode: 5 * time.Millisecond, SimExec: 7 * time.Millisecond,
			Retries:       4,
			BoundWeighted: 0.125, MaxBound: 0.5,
			Sum: []float64{1.5, -2.25}, Min: []float64{-3, -4}, Max: []float64{5, 6},
		},
	}
}

func TestCursorRoundTrip(t *testing.T) {
	c := sampleCursor()
	raw, err := EncodeCursor(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCursor(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("cursor round trip differs:\n got %+v %+v\nwant %+v %+v", got, got.Agg, c, c.Agg)
	}
}

func TestCursorDecodeTypedErrors(t *testing.T) {
	raw, err := EncodeCursor(sampleCursor())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(b []byte) []byte { return b[:5] }, ErrTruncated},
		{"bad-magic", func(b []byte) []byte { b[2] ^= 0xFF; return b }, ErrCorrupt},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-8] }, ErrTruncated},
		{"flipped-body", func(b []byte) []byte { b[len(b)-2] ^= 0x40; return b }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), raw...))
			if _, err := DecodeCursor(mut); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// A structurally inconsistent cursor inside a valid checksum means
	// it was written wrong: committed must equal the folded chunk count.
	c := sampleCursor()
	c.Committed = 9
	mut, err := EncodeCursor(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCursor(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inconsistent counters: got %v, want ErrCorrupt", err)
	}
}

func TestLoadLatestCursorSkipsDamaged(t *testing.T) {
	dir := t.TempDir()
	old := sampleCursor()
	old.Committed, old.Agg.Chunks = 3, 3
	if _, err := SaveCursor(dir, old); err != nil {
		t.Fatal(err)
	}
	newer := sampleCursor()
	if _, err := SaveCursor(dir, newer); err != nil {
		t.Fatal(err)
	}
	// Damage the newest file in place: LoadLatestCursor must fall back
	// to the older intact one and name the damaged file.
	newest := filepath.Join(dir, cursors.Name(newer.Committed))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, path, err := LoadLatestCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Committed != 3 || filepath.Base(path) != cursors.Name(3) {
		t.Fatalf("loaded %d from %s, want committed 3", got.Committed, path)
	}

	// All damaged -> wrapped os.ErrNotExist naming the casualties.
	older := filepath.Join(dir, cursors.Name(3))
	if err := os.WriteFile(older, raw[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatestCursor(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("all damaged: got %v, want os.ErrNotExist", err)
	}

	// Empty / missing dir.
	if _, _, err := LoadLatestCursor(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: got %v, want os.ErrNotExist", err)
	}
}

func TestPruneCursors(t *testing.T) {
	dir := t.TempDir()
	for i := int64(1); i <= 5; i++ {
		c := sampleCursor()
		c.Committed, c.Agg.Chunks = i, i
		if _, err := SaveCursor(dir, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCursors(dir, 2); err != nil {
		t.Fatal(err)
	}
	paths, err := ListCursors(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d cursors, want 2", len(paths))
	}
	if filepath.Base(paths[0]) != cursors.Name(5) || filepath.Base(paths[1]) != cursors.Name(4) {
		t.Fatalf("kept %v, want newest two", paths)
	}
	// keep <= 0 keeps everything.
	if err := PruneCursors(dir, 0); err != nil {
		t.Fatal(err)
	}
	if paths, _ = ListCursors(dir); len(paths) != 2 {
		t.Fatalf("prune with keep=0 removed files: %v", paths)
	}
}
