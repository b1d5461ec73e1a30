// Package huffman implements a canonical Huffman coder over uint32 symbol
// alphabets. It is the entropy-coding stage of the SZ- and MGARD-style
// codecs in internal/compress: prediction residuals quantize to a small
// set of integer codes with a very skewed distribution, which Huffman
// coding shrinks by 4-10x before the final flate pass.
package huffman

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"github.com/scidata/errprop/internal/bitstream"
)

// maxCodeLen bounds codeword length; 57 keeps the decode loop's 64-bit
// buffer safe and is unreachable for any realistic symbol distribution.
const maxCodeLen = 57

// tableBits caps the width of Decode's lookup table: a codeword of at
// most this many bits decodes in one lookup. The codecs' skewed residuals
// give their frequent symbols codewords this short, and the table
// (2^tableBits two-byte slots) stays on the stack.
const tableBits = 11

var (
	// ErrCorrupt is returned when a stream cannot be decoded.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

type node struct {
	count       uint64
	symbol      uint32
	left, right *node
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].symbol < h[j].symbol // deterministic tie-break
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }
func (h nodeHeap) Peek() *node   { return h[0] }

// codeLengths computes canonical code lengths from symbol frequencies.
func codeLengths(freq map[uint32]uint64) map[uint32]int {
	h := make(nodeHeap, 0, len(freq))
	for s, c := range freq {
		h = append(h, &node{count: c, symbol: s}) //lint:ignore maporder heap pop order is total (count then symbol tie-break), so insertion order cannot reach the output
	}
	heap.Init(&h)
	if h.Len() == 1 {
		return map[uint32]int{h.Peek().symbol: 1}
	}
	seq := uint32(1 << 31) // internal-node ids above the symbol space
	for h.Len() > 1 {
		a := heap.Pop(&h).(*node)
		b := heap.Pop(&h).(*node)
		heap.Push(&h, &node{count: a.count + b.count, symbol: seq, left: a, right: b})
		seq++
	}
	lengths := make(map[uint32]int, len(freq))
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n.left == nil {
			if depth > maxCodeLen {
				depth = maxCodeLen // extremely skewed trees: clamp (handled canonically below)
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h.Peek(), 0)
	return lengths
}

// entry is one header record: a symbol and the length of its codeword.
type entry struct {
	sym uint32
	len int
}

// Encode Huffman-codes syms and returns a self-describing byte stream
// (symbol table + payload). Decoding requires only the stream.
func Encode(syms []uint32) []byte {
	w := bitstream.NewWriter()
	w.WriteBits(uint64(len(syms)), 32)
	if len(syms) == 0 {
		return w.Bytes()
	}
	freq := make(map[uint32]uint64)
	for _, s := range syms {
		freq[s]++
	}
	lengths := codeLengths(freq)

	// Header: distinct symbol count, then (symbol, length) pairs sorted by
	// (length, symbol) — the canonical order, enough to rebuild the code.
	entries := make([]entry, 0, len(lengths))
	for s, l := range lengths {
		entries = append(entries, entry{s, l})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.len != b.len {
			return cmp.Compare(a.len, b.len)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	w.WriteBits(uint64(len(entries)), 32)
	codes := make(map[uint32]code, len(entries))
	var next uint64
	prevLen := 0
	for _, e := range entries {
		w.WriteBits(uint64(e.sym), 32)
		w.WriteBits(uint64(e.len), 6)
		next <<= uint(e.len - prevLen)
		codes[e.sym] = code{code: reverseBits(next, e.len), len: e.len}
		next++
		prevLen = e.len
	}
	// Payload: each codeword MSB-first, so written bit-reversed through
	// the LSB-first bitstream.
	for _, s := range syms {
		c := codes[s]
		w.WriteBits(c.code, uint(c.len))
	}
	return w.Bytes()
}

type code struct {
	code uint64
	len  int
}

// reverseBits reverses the low n bits of v so that codewords, which are
// defined MSB-first, can be written through the LSB-first bitstream.
func reverseBits(v uint64, n int) uint64 {
	return bits.Reverse64(v) >> (64 - n)
}

// Decode reverses Encode.
//
// It rebuilds the canonical code from the header in slices: the symbols
// in (length, symbol) order plus, per length, the first codeword, the
// codeword count and the rank of its first symbol. A codeword of at most
// tableBits bits resolves in one lookup of the next tableBits stream
// bits; a longer one, or an unassigned code, walks the longer lengths
// with those per-length counts.
func Decode(data []byte) ([]uint32, error) {
	if len(data) < 4 {
		return nil, ErrCorrupt
	}
	count := uint64(binary.LittleEndian.Uint32(data))
	if count == 0 {
		return nil, nil
	}
	if len(data) < 8 {
		return nil, ErrCorrupt
	}
	distinct := uint64(binary.LittleEndian.Uint32(data[4:]))
	if distinct == 0 || distinct > count {
		return nil, ErrCorrupt
	}
	// Plausibility: each header entry takes 38 bits and each payload
	// symbol at least 1 bit, so a valid stream must hold this many bits.
	// This rejects garbage counts before they drive huge allocations, and
	// leaves the whole header in range.
	end := len(data) * 8
	if uint64(end-64) < distinct*38+(count-1) {
		return nil, ErrCorrupt
	}
	entries := make([]entry, distinct)
	pos := 64
	for i := range entries {
		w := bitsAt(data, pos)
		entries[i] = entry{uint32(w), int(w >> 32 & 63)}
		if entries[i].len == 0 || entries[i].len > maxCodeLen {
			return nil, ErrCorrupt
		}
		pos += 38
	}
	// Encode writes the canonical (length, symbol) order, which makes
	// this sort a linear scan.
	slices.SortFunc(entries, func(a, b entry) int {
		if a.len != b.len {
			return cmp.Compare(a.len, b.len)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	var (
		first  [maxCodeLen + 1]uint64 // first codeword of each length
		counts [maxCodeLen + 1]uint64 // codewords of each length
		rank   [maxCodeLen + 1]int    // canonical rank of each length's first codeword
	)
	syms := make([]uint32, distinct)
	for i, e := range entries {
		syms[i] = e.sym
		counts[e.len]++
	}
	if hasDuplicate(syms) {
		return nil, ErrCorrupt
	}
	maxLen := entries[len(entries)-1].len
	// Lengths that over-subscribe the code space (Kraft sum above 1)
	// give colliding canonical codewords: no prefix code has them.
	left := uint64(1)
	var next uint64
	for l := 1; l <= maxLen; l++ {
		left <<= 1
		if counts[l] > left {
			return nil, ErrCorrupt
		}
		left -= counts[l]
		first[l], rank[l] = next, rank[l-1]+int(counts[l-1])
		next = (next + counts[l]) << 1
	}

	// The table maps the next k stream bits (first bit lowest) to
	// rank<<4 | length for every codeword that short, reversed because
	// codewords go out MSB-first; 0 sends the symbol down the walk. A
	// codeword of at most k bits has a rank below 2^k (Kraft), so the
	// slot fits 16 bits.
	k := min(tableBits, maxLen)
	var table [1 << tableBits]uint16
	for l := 1; l <= k; l++ {
		for j := uint64(0); j < counts[l]; j++ {
			slot := uint16(rank[l]+int(j))<<4 | uint16(l)
			for i := reverseBits(first[l]+j, l); i < 1<<k; i += 1 << l {
				table[i] = slot
			}
		}
	}

	mask := uint64(1)<<k - 1
	out := make([]uint32, count)
	for i := range out {
		w := bitsAt(data, pos)
		e := table[w&mask]
		r, l := int(e>>4), int(e&15)
		if e == 0 {
			// A longer codeword, or an unassigned code: walk the lengths
			// past the table's over the stream read MSB-first, the
			// codewords' own order.
			c := bits.Reverse64(w)
			for l = k + 1; l <= maxLen && c>>(64-l)-first[l] >= counts[l]; l++ {
			}
			if l > maxLen {
				return nil, ErrCorrupt
			}
			r = rank[l] + int(c>>(64-l)-first[l])
		}
		if pos+l > end {
			return nil, ErrCorrupt // the codeword runs past the end
		}
		out[i] = syms[r]
		pos += l
	}
	return out, nil
}

// bitsAt returns the stream bits from bit pos on, first bit lowest: at
// least 57 of them, zero past the end of data.
func bitsAt(data []byte, pos int) uint64 {
	i := pos >> 3
	if i+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[i:]) >> (pos & 7)
	}
	var w uint64
	for k := len(data) - 1; k >= i; k-- {
		w = w<<8 | uint64(data[k])
	}
	return w >> (pos & 7)
}

// hasDuplicate reports whether a symbol appears twice in syms.
func hasDuplicate(syms []uint32) bool {
	sorted := slices.Clone(syms)
	slices.Sort(sorted)
	return len(slices.Compact(sorted)) < len(syms)
}
