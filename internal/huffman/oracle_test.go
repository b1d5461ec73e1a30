package huffman

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/scidata/errprop/internal/bitstream"
)

// canonicalCodes assigns canonical codewords given code lengths.
func canonicalCodes(lengths map[uint32]int) map[uint32]code {
	entries := make([]entry, 0, len(lengths))
	for s, l := range lengths {
		entries = append(entries, entry{s, l})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].len != entries[j].len {
			return entries[i].len < entries[j].len
		}
		return entries[i].sym < entries[j].sym
	})
	codes := make(map[uint32]code, len(entries))
	var next uint64
	prevLen := 0
	for _, e := range entries {
		next <<= uint(e.len - prevLen)
		codes[e.sym] = code{code: next, len: e.len}
		next++
		prevLen = e.len
	}
	return codes
}

// decodeTree is the pointer-tree decoder Decode replaced, kept as its
// oracle: it rebuilds the canonical code through maps, inserts every
// codeword into a binary tree (refusing a codeword that is a prefix of
// another) and walks the tree one stream bit at a time.
func decodeTree(data []byte) ([]uint32, error) {
	r := bitstream.NewReader(data)
	count, err := r.ReadBits(32)
	if err != nil {
		return nil, ErrCorrupt
	}
	if count == 0 {
		return nil, nil
	}
	distinct, err := r.ReadBits(32)
	if err != nil || distinct == 0 || distinct > count {
		return nil, ErrCorrupt
	}
	if uint64(r.Remaining()) < distinct*38+(count-1) {
		return nil, ErrCorrupt
	}
	entries := make([]entry, distinct)
	for i := range entries {
		s, err := r.ReadBits(32)
		if err != nil {
			return nil, ErrCorrupt
		}
		l, err := r.ReadBits(6)
		if err != nil || l == 0 || l > maxCodeLen {
			return nil, ErrCorrupt
		}
		entries[i] = entry{uint32(s), int(l)}
	}
	lengths := make(map[uint32]int, distinct)
	for _, e := range entries {
		lengths[e.sym] = e.len
	}
	if len(lengths) != int(distinct) {
		return nil, ErrCorrupt // duplicate symbols in header
	}
	codes := canonicalCodes(lengths)
	root := &node{}
	for s, c := range codes {
		n := root
		for i := c.len - 1; i >= 0; i-- {
			bit := (c.code >> uint(i)) & 1
			if bit == 0 {
				if n.left == nil {
					n.left = &node{}
				}
				n = n.left
			} else {
				if n.right == nil {
					n.right = &node{}
				}
				n = n.right
			}
			if n.count == 1 {
				return nil, ErrCorrupt // prefix violation
			}
		}
		if n.left != nil || n.right != nil {
			return nil, ErrCorrupt
		}
		n.symbol, n.count = s, 1 // count==1 marks a leaf
	}
	out := make([]uint32, count)
	for i := range out {
		n := root
		for n.count == 0 {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, ErrCorrupt
			}
			if bit == 0 {
				n = n.left
			} else {
				n = n.right
			}
			if n == nil {
				return nil, ErrCorrupt
			}
		}
		out[i] = n.symbol
	}
	return out, nil
}

// checkMatchesTree fails t unless Decode and decodeTree both refuse data
// or both return the same symbols.
func checkMatchesTree(t *testing.T, what string, data []byte) {
	t.Helper()
	got, err := Decode(data)
	want, werr := decodeTree(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: Decode err %v, tree decoder err %v", what, err, werr)
	}
	if err != nil {
		if err != ErrCorrupt {
			t.Fatalf("%s: Decode err %v, want ErrCorrupt", what, err)
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Decode and tree decoder disagree (%d vs %d symbols)", what, len(got), len(want))
	}
}

// skewed draws n symbols from an alphabet of size k with geometric-ish
// frequencies, so code lengths spread from 1 bit to well past tableBits.
func skewed(rng *rand.Rand, n, k int) []uint32 {
	syms := make([]uint32, n)
	base := uint32(rng.Intn(1 << 20))
	for i := range syms {
		j := int(rng.ExpFloat64() * float64(k) / 8)
		if j >= k || rng.Intn(16) == 0 {
			j = rng.Intn(k)
		}
		syms[i] = base + uint32(j)*uint32(1+rng.Intn(3))
	}
	return syms
}

// TestDecodeMatchesTree checks the table decoder against the tree decoder
// on skewed streams over alphabets of 1 to 2,000 symbols: the stream
// itself, every truncation, single-bit flips (every bit of the shorter
// streams, 1,024 spread over each longer one) and random garbage.
func TestDecodeMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{1, 2, 3, 5, 17, 64, 300, 2000} {
		for _, n := range []int{1, 7, 200, 2000} {
			syms := skewed(rng, n, k)
			enc := Encode(syms)
			if dec, err := Decode(enc); err != nil || !slices.Equal(dec, syms) {
				t.Fatalf("k=%d n=%d: round trip failed (err %v)", k, n, err)
			}
			for cut := 0; cut < len(enc); cut++ {
				checkMatchesTree(t, "truncation", enc[:cut])
			}
			flips := len(enc) * 8
			step := 1
			if flips > 1024 {
				step = flips / 1024
			}
			buf := bytes.Clone(enc)
			for bit := rng.Intn(step); bit < flips; bit += step {
				buf[bit/8] ^= 1 << (bit % 8)
				checkMatchesTree(t, "bit flip", buf)
				buf[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		checkMatchesTree(t, "garbage", garbage)
	}
}

// TestDecodeRefusesOversubscribedHeader builds headers by hand: lengths
// whose Kraft sum exceeds 1 must be refused, a complete or incomplete
// code accepted, and a symbol listed twice refused, among symbols close
// together or far apart. The payload is all zero bits, which every
// accepted header here decodes.
func TestDecodeRefusesOversubscribedHeader(t *testing.T) {
	for _, c := range []struct {
		name string
		ents []entry
		ok   bool
	}{
		{"complete", []entry{{1, 1}, {2, 2}, {3, 2}}, true},
		{"incomplete", []entry{{1, 2}, {2, 2}, {3, 2}}, true},
		{"57-bit codes", []entry{{1, 1}, {2, 2}, {3, 57}, {4, 57}}, true},
		{"three of length 1", []entry{{1, 1}, {2, 1}, {3, 1}}, false},
		{"one over", []entry{{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 3}}, false},
		{"over by one 57-bit code", []entry{{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 57}}, false},
		{"duplicate symbol", []entry{{1, 1}, {1, 2}, {3, 2}}, false},
		{"duplicate symbol, sparse", []entry{{7, 1}, {1 << 31, 2}, {7, 2}}, false},
		{"sparse", []entry{{7, 1}, {1 << 31, 2}, {8, 2}}, true},
	} {
		w := bitstream.NewWriter()
		w.WriteBits(uint64(len(c.ents)), 32) // count: one symbol per entry
		w.WriteBits(uint64(len(c.ents)), 32)
		for _, e := range c.ents {
			w.WriteBits(uint64(e.sym), 32)
			w.WriteBits(uint64(e.len), 6)
		}
		w.WriteBits(0, 64)
		data := w.Bytes()
		if _, err := Decode(data); (err == nil) != c.ok {
			t.Errorf("%s: Decode err %v, want ok=%v", c.name, err, c.ok)
		}
		checkMatchesTree(t, c.name, data)
	}
}

// TestDecodeLongCodes round-trips Fibonacci frequencies, whose Huffman
// code gives symbol i a codeword of about i bits: codewords from 1 bit
// to well past tableBits, so both the table and the walk decode.
func TestDecodeLongCodes(t *testing.T) {
	var syms []uint32
	a, b := 1, 1
	for s := uint32(0); s < 22; s++ {
		for j := 0; j < a; j++ {
			syms = append(syms, 1000-s)
		}
		a, b = b, a+b
	}
	rand.New(rand.NewSource(3)).Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	enc := Encode(syms)
	if dec, err := Decode(enc); err != nil || !slices.Equal(dec, syms) {
		t.Fatalf("round trip failed (err %v)", err)
	}
	checkMatchesTree(t, "fibonacci", enc)
	checkMatchesTree(t, "fibonacci truncated", enc[:len(enc)-1])
}

// FuzzDecodeMatchesTree: on any input the table decoder and the tree
// decoder both refuse, or both return the same symbols.
func FuzzDecodeMatchesTree(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(Encode([]uint32{1, 2, 3, 1, 1}))
	f.Add(Encode([]uint32{7}))
	f.Add(Encode(skewed(rng, 300, 40)))
	f.Add(Encode(skewed(rng, 200, 100)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesTree(t, "fuzz", data)
	})
}
