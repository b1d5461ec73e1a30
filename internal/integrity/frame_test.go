package integrity

import (
	"bytes"
	"errors"
	"testing"
)

var testMagics = []string{"TESTFRAME1", "TESTFRAME2"}

type frameCase struct {
	name string
	raw  []byte
	max  int
	want error // nil: must unframe
}

func TestFrameUnframe(t *testing.T) {
	const maxBody = 64
	bodies := [][]byte{{}, []byte("x"), []byte("the bound is only as strong as its bytes")}

	for _, m := range testMagics {
		for _, body := range bodies {
			raw := Frame(m, body)
			if len(raw) != FrameLen(m, len(body)) || len(raw) != len(m)+12+len(body) {
				t.Fatalf("%s/%d: frame is %d bytes", m, len(body), len(raw))
			}
			got, gotBody, crc, err := Unframe(raw, maxBody, testMagics...)
			if err != nil || got != m || !bytes.Equal(gotBody, body) || crc != Checksum(body) {
				t.Fatalf("%s/%d: round trip gave (%q, %q, %08x, %v)", m, len(body), got, gotBody, crc, err)
			}
		}
	}

	raw := Frame(testMagics[1], bodies[2])
	bodyAt := len(testMagics[1]) + frameHeader
	with := func(edit func([]byte) []byte) []byte { return edit(append([]byte(nil), raw...)) }
	cases := []frameCase{
		{"unknown magic", with(func(b []byte) []byte { copy(b, "TESTFRAME9"); return b }), maxBody, ErrCorrupt},
		{"body over cap", raw, len(bodies[2]) - 1, ErrCorrupt},
		{"body at cap", raw, len(bodies[2]), nil},
		{"absurd length before any body", with(func(b []byte) []byte {
			copy(b[len(testMagics[1]):], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
			return b[:bodyAt]
		}), maxBody, ErrCorrupt},
		{"trailing byte", with(func(b []byte) []byte { return append(b, 0) }), maxBody, ErrCorrupt},
		{"stored checksum flipped", with(func(b []byte) []byte { b[bodyAt-1] ^= 1; return b }), maxBody, ErrCorrupt},
	}
	for cut := 0; cut < len(raw); cut++ {
		cases = append(cases, frameCase{"truncated", raw[:cut], maxBody, ErrTruncated})
	}
	for i := bodyAt; i < len(raw); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := with(func(b []byte) []byte { b[i] ^= 1 << bit; return b })
			cases = append(cases, frameCase{"body bit flip", flipped, maxBody, ErrCorrupt})
		}
	}
	for _, tc := range cases {
		_, _, _, err := Unframe(tc.raw, tc.max, testMagics...)
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s (%d bytes, cap %d): got %v, want %v", tc.name, len(tc.raw), tc.max, err, tc.want)
		}
	}
}

// FuzzUnframe: Unframe either refuses bytes with a typed error or
// accepts exactly one frame, which Frame reproduces byte for byte.
func FuzzUnframe(f *testing.F) {
	f.Add(Frame(testMagics[0], []byte("seed body")))
	f.Add(Frame(testMagics[1], nil))
	f.Add([]byte(testMagics[0]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		magic, body, crc, err := Unframe(raw, 1<<10, testMagics...)
		if err != nil {
			if !IsIntegrityError(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if crc != Checksum(body) || !bytes.Equal(Frame(magic, body), raw) {
			t.Fatalf("accepted %x, which does not re-frame to itself", raw)
		}
	})
}
