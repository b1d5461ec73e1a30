package nn

import (
	"bytes"
	"errors"
	"testing"

	"github.com/scidata/errprop/internal/integrity"
)

func saveModel(t *testing.T) (*Network, []byte) {
	t.Helper()
	spec := ResNetSpec("m3", 1, 6, 6, 3, []int{1}, []int{2}, ActReLU, true)
	net, err := spec.Build(9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return net, buf.Bytes()
}

func TestModelV3RoundTrip(t *testing.T) {
	net, raw := saveModel(t)
	if got := string(raw[:len(modelMagicV3)]); got != modelMagicV3 {
		t.Fatalf("Save wrote magic %q, want %q", got, modelMagicV3)
	}
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	a, b := flatParams(net), flatParams(loaded)
	if len(a) != len(b) {
		t.Fatalf("parameter count %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parameter drift at flat index %d", i)
		}
	}
	sa, sb := net.spectralSigmas(), loaded.spectralSigmas()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sigma estimate drift at %d: %v != %v", i, sb[i], sa[i])
		}
	}
}

// TestModelLegacyV2StillLoads pins backward compatibility: a body framed
// with the old unchecksummed magic must keep loading.
func TestModelLegacyV2StillLoads(t *testing.T) {
	net, _ := saveModel(t)
	var legacy bytes.Buffer
	legacy.WriteString(modelMagic)
	if err := net.saveBody(&legacy); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatalf("legacy model no longer loads: %v", err)
	}
	a, b := flatParams(net), flatParams(loaded)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("legacy load parameter drift at flat index %d", i)
		}
	}
}

// TestModelV3DetectsEveryByteFlip: any single corrupted byte in a v3
// model file must surface as a typed integrity error — a model that
// loads wrong silently would poison every downstream prediction.
func TestModelV3DetectsEveryByteFlip(t *testing.T) {
	_, raw := saveModel(t)
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flip: corrupt model loaded without error", i)
		} else if !integrity.IsIntegrityError(err) {
			t.Fatalf("byte %d flip: untyped error %v", i, err)
		}
	}
}

func TestModelV3TruncationTyped(t *testing.T) {
	_, raw := saveModel(t)
	for _, cut := range []int{0, 4, len(modelMagicV3), len(modelMagicV3) + 8,
		len(modelMagicV3) + 12, len(raw) / 2, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, integrity.ErrTruncated) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestModelV3BadMagicAndLength(t *testing.T) {
	_, raw := saveModel(t)
	bad := append([]byte(nil), raw...)
	copy(bad, "ERRPROPNN9")
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("unknown magic: got %v, want ErrCorrupt", err)
	}
	// An absurd declared body length must be rejected before allocation.
	huge := append([]byte(nil), raw[:len(modelMagicV3)]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	huge = append(huge, 0, 0, 0, 0)
	if _, err := Load(bytes.NewReader(huge)); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("absurd body length: got %v, want ErrCorrupt", err)
	}
	// A v3 file is exactly one frame: a byte past the declared body is
	// damage, not padding.
	if _, err := Load(bytes.NewReader(append(raw, 0))); !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("1 trailing byte: got %v, want ErrCorrupt", err)
	}
}
