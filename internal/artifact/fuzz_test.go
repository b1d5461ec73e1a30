package artifact

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeArtifact hammers the artifact decoder with mutated bytes:
// it must never panic, never over-allocate from a corrupt length field,
// and anything it accepts must re-encode to exactly the input (the
// canonical-form bijection every other container in this repo pins).
// It seeds from the v2 golden fixture and from the version-1 fixture,
// whose bytes and mutations must all be refused.
func FuzzDecodeArtifact(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2.aot"))
	if err != nil {
		f.Fatalf("read golden artifact seed: %v", err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.aot"))
	if err != nil {
		f.Fatalf("read version-1 artifact seed: %v", err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	addMutations := func(raw []byte) {
		for i := 0; i < len(raw); i += 61 {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 0x3B
			f.Add(mut)
		}
	}
	addMutations(raw)
	f.Add(v1)
	addMutations(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		re, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact fails to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("decode/encode not a bijection:\n in  %x\n out %x", data, re)
		}
	})
}
