package huffman

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, syms []uint32) {
	t.Helper()
	enc := Encode(syms)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(syms) == 0 && len(dec) == 0 {
		return
	}
	if !reflect.DeepEqual(dec, syms) {
		t.Fatalf("roundtrip mismatch: got %v want %v", dec[:min(10, len(dec))], syms[:min(10, len(syms))])
	}
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, []uint32{1, 2, 3, 1, 1, 1, 2, 5, 5, 1})
}

func TestRoundTripEmpty(t *testing.T)        { roundTrip(t, nil) }
func TestRoundTripSingleSymbol(t *testing.T) { roundTrip(t, []uint32{7}) }
func TestRoundTripOneDistinct(t *testing.T) {
	syms := make([]uint32, 1000)
	for i := range syms {
		syms[i] = 42
	}
	roundTrip(t, syms)
}

func TestRoundTripLargeAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(1000))
	}
	roundTrip(t, syms)
}

func TestSkewedCompresses(t *testing.T) {
	// Very skewed distribution (like SZ quantization codes around the
	// center bin) must compress far below 4 bytes/symbol.
	rng := rand.New(rand.NewSource(2))
	syms := make([]uint32, 20000)
	for i := range syms {
		r := rng.Float64()
		switch {
		case r < 0.90:
			syms[i] = 32768
		case r < 0.97:
			syms[i] = 32769
		default:
			syms[i] = uint32(32760 + rng.Intn(16))
		}
	}
	enc := Encode(syms)
	if len(enc) > len(syms)/2 {
		t.Fatalf("skewed stream encoded to %d bytes for %d symbols; want < %d", len(enc), len(syms), len(syms)/2)
	}
	roundTrip(t, syms)
}

func TestDecodeCorrupt(t *testing.T) {
	syms := []uint32{1, 2, 3, 4, 5, 1, 1, 1}
	enc := Encode(syms)
	// Truncations must error, not panic or return wrong data silently.
	for cut := 1; cut < len(enc); cut++ {
		if dec, err := Decode(enc[:cut]); err == nil && reflect.DeepEqual(dec, syms) {
			// A truncation that still decodes fully is impossible since
			// the count header promises more symbols than remain.
			t.Fatalf("truncated stream at %d decoded successfully", cut)
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil stream should error")
	}
	// Garbage header.
	if _, err := Decode(bytes.Repeat([]byte{0xFF}, 16)); err == nil {
		t.Fatal("garbage stream should error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		syms := make([]uint32, len(raw))
		for i, b := range raw {
			syms[i] = uint32(b % 17) // small alphabet
		}
		enc := Encode(syms)
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		if len(syms) == 0 {
			return len(dec) == 0
		}
		return reflect.DeepEqual(dec, syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	syms := []uint32{5, 5, 9, 1, 1, 1, 7}
	a, b := Encode(syms), Encode(syms)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(syms)
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	enc := Encode(syms)
	b.SetBytes(int64(len(syms) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
