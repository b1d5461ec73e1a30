package mgard

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/huffman"
)

// decompressClosureWalk is the decoder Decompress replaced, kept as its
// oracle: the same parse, then walkHierarchy's closure per node.
func decompressClosureWalk(payload []byte, dims []int) ([]float64, error) {
	fr := flate.NewReader(bytes.NewReader(payload))
	raw, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("mgard: %w: %v", compress.ErrCorrupt, err)
	}
	if len(raw) < 4 {
		return nil, compress.ErrCorrupt
	}
	L := int(binary.LittleEndian.Uint32(raw))
	p := 4
	if L < 0 || L > 64 || p+8*(L+1) > len(raw) {
		return nil, compress.ErrCorrupt
	}
	budgets := make([]float64, L+1)
	for i := range budgets {
		budgets[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	if p+8 > len(raw) {
		return nil, compress.ErrCorrupt
	}
	nUnpred := int(binary.LittleEndian.Uint64(raw[p:]))
	p += 8
	// Subtract instead of multiplying so a huge untrusted count cannot
	// overflow the bounds check (8 bytes stay reserved for hlen).
	if nUnpred < 0 || len(raw)-p < 8 || nUnpred > (len(raw)-p-8)/8 {
		return nil, compress.ErrCorrupt
	}
	unpred := make([]float64, nUnpred)
	for i := range unpred {
		unpred[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	hlen := int(binary.LittleEndian.Uint64(raw[p:]))
	p += 8
	if hlen < 0 || hlen > len(raw)-p {
		return nil, compress.ErrCorrupt
	}
	codes, err := huffman.Decode(raw[p : p+hlen])
	if err != nil {
		return nil, fmt.Errorf("mgard: %w: %v", compress.ErrCorrupt, err)
	}

	g := viewGrid(dims)
	n := g.rows * g.cols
	// The walk consumes exactly one code per grid node; checking the
	// count up front keeps a tiny corrupt payload from sizing a huge
	// allocation off the (container-supplied) dims alone.
	if len(codes) != n {
		return nil, compress.ErrCorrupt
	}
	decoded := make([]float64, n)
	ci, ui := 0, 0
	var walkErr error
	walkHierarchy(g, L, func(level, idx int, predict func(dec []float64) float64) {
		if walkErr != nil {
			return
		}
		if ci >= len(codes) {
			walkErr = compress.ErrCorrupt
			return
		}
		code := codes[ci]
		ci++
		if code == unpredSym {
			if ui >= len(unpred) {
				walkErr = compress.ErrCorrupt
				return
			}
			decoded[idx] = unpred[ui]
			ui++
			return
		}
		pred := predict(decoded)
		decoded[idx] = pred + float64(int64(code)-codeCenter)*2*budgets[level]
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if ci != len(codes) {
		return nil, compress.ErrCorrupt
	}
	return decoded, nil
}

// walkHierarchy is the hierarchy walk walk replaced, kept as its oracle.
// It visits every grid node exactly once in coarse-to-fine
// order, passing a prediction closure that multilinearly interpolates the
// node from the (already decoded) coarser grid. Level 0 nodes have a zero
// prediction (their coefficient is the raw value).
//
// The node set at level l consists of indices that are multiples of
// h = 2^(L-l) (clamped into range), matching a dyadic refinement of the
// grid; boundary nodes interpolate from clamped coarse neighbours, which
// preserves the convex-combination property the error telescoping needs.
func walkHierarchy(g grid, L int, visit func(level, idx int, predict func(dec []float64) float64)) {
	onGrid := func(i, h int) bool { return i%h == 0 }
	// coarseLeft/Right clamp a neighbour offset onto the coarse grid.
	clampCoarse := func(i, n, h2 int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			// Largest coarse-grid index within range.
			return ((n - 1) / h2) * h2
		}
		return i
	}
	zero := func([]float64) float64 { return 0 }

	for level := 0; level <= L; level++ {
		h := 1 << uint(L-level)
		h2 := h * 2
		for r := 0; r < g.rows; r += 1 {
			if !onGrid(r, h) {
				continue
			}
			for c := 0; c < g.cols; c += 1 {
				if !onGrid(c, h) {
					continue
				}
				if level > 0 && onGrid(r, h2) && onGrid(c, h2) {
					continue // already visited at a coarser level
				}
				idx := r*g.cols + c
				if level == 0 {
					visit(0, idx, zero)
					continue
				}
				rOdd := !onGrid(r, h2)
				cOdd := !onGrid(c, h2)
				r0, r1 := clampCoarse(r-h, g.rows, h2), clampCoarse(r+h, g.rows, h2)
				c0, c1 := clampCoarse(c-h, g.cols, h2), clampCoarse(c+h, g.cols, h2)
				var predict func(dec []float64) float64
				switch {
				case rOdd && cOdd:
					predict = func(dec []float64) float64 {
						return 0.25 * (dec[r0*g.cols+c0] + dec[r0*g.cols+c1] +
							dec[r1*g.cols+c0] + dec[r1*g.cols+c1])
					}
				case rOdd:
					predict = func(dec []float64) float64 {
						return 0.5 * (dec[r0*g.cols+c] + dec[r1*g.cols+c])
					}
				default: // cOdd
					predict = func(dec []float64) float64 {
						return 0.5 * (dec[r*g.cols+c0] + dec[r*g.cols+c1])
					}
				}
				visit(level, idx, predict)
			}
		}
	}
}

type visitRec struct {
	level, idx int
	pred       uint64 // math.Float64bits of the prediction
}

// visits runs a walk over a field seeded with rng and records every
// visit. Each visit overwrites its node with a value that depends on the
// prediction, as a decoder does, so a later prediction that read a node
// too early or too late would differ.
func visits(g grid, L int, rng *rand.Rand, run func(dec []float64, visit func(level, idx int, pred float64))) []visitRec {
	dec := make([]float64, g.rows*g.cols)
	for i := range dec {
		dec[i] = rng.NormFloat64()
	}
	var out []visitRec
	run(dec, func(level, idx int, pred float64) {
		out = append(out, visitRec{level, idx, math.Float64bits(pred)})
		dec[idx] = pred + 0.125*float64(idx%7) - 0.3
	})
	return out
}

// TestWalkMatchesClosureWalk: walk yields walkHierarchy's (level, idx,
// pred) sequence, pred bit for bit, at each grid's own level count and at
// the extremes a decoder accepts (0, and 63).
func TestWalkMatchesClosureWalk(t *testing.T) {
	grids := []grid{{1, 1}, {1, 7}, {7, 1}, {5, 5}, {4, 9}, {17, 33}, {9, 256}, {9, 4096}, viewGrid([]int{3, 5, 7})}
	for _, g := range grids {
		for _, L := range []int{g.levels(), 0, g.levels() + 2, 63} {
			seed := int64(g.rows*100003 + g.cols*31 + L)
			got := visits(g, L, rand.New(rand.NewSource(seed)), func(dec []float64, visit func(int, int, float64)) {
				walk(g, L, dec, visit)
			})
			want := visits(g, L, rand.New(rand.NewSource(seed)), func(dec []float64, visit func(int, int, float64)) {
				walkHierarchy(g, L, func(level, idx int, predict func([]float64) float64) {
					visit(level, idx, predict(dec))
				})
			})
			if len(got) != g.rows*g.cols || !slices.Equal(got, want) {
				t.Fatalf("grid %+v L=%d: walk differs from the closure walk (%d vs %d visits)", g, L, len(got), len(want))
			}
		}
	}
}

// checkMatchesClosureWalk fails t unless Decompress and the closure-walk
// decoder both refuse payload or return the same values bit for bit.
func checkMatchesClosureWalk(t *testing.T, what string, payload []byte, dims []int) {
	t.Helper()
	got, err := Codec{}.Decompress(payload, dims)
	want, werr := decompressClosureWalk(payload, dims)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: Decompress err %v, closure-walk decoder err %v", what, err, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, closure-walk decoder %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, closure-walk decoder %v", what, i, got[i], want[i])
		}
	}
}

// TestDecompressMatchesClosureWalkUnderBitFlips flips every bit of a few
// small payloads, and every bit of their inflated bodies (deflated again,
// so the flip reaches the parser), and requires Decompress to agree with
// the closure-walk decoder on each.
func TestDecompressMatchesClosureWalkUnderBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		dims []int
		mode compress.Mode
		tol  float64
	}{
		{[]int{5, 5}, compress.AbsLinf, 1e-3},
		{[]int{3, 11}, compress.L2, 1e-2},
		{[]int{1, 40}, compress.AbsLinf, 1e-9}, // rough at a tight bound: unpredictable values
	} {
		n := c.dims[0] * c.dims[1]
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Sin(0.4*float64(i)) + 0.05*rng.NormFloat64()
		}
		payload, err := Codec{}.Compress(data, c.dims, c.mode, c.tol)
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesClosureWalk(t, "intact", payload, c.dims)
		buf := bytes.Clone(payload)
		for bit := 0; bit < 8*len(buf); bit++ {
			buf[bit/8] ^= 1 << (bit % 8)
			checkMatchesClosureWalk(t, fmt.Sprintf("%v payload bit %d", c.dims, bit), buf, c.dims)
			buf[bit/8] ^= 1 << (bit % 8)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(raw); bit++ {
			raw[bit/8] ^= 1 << (bit % 8)
			var z bytes.Buffer
			fw, _ := flate.NewWriter(&z, flate.BestSpeed)
			fw.Write(raw)
			fw.Close()
			checkMatchesClosureWalk(t, fmt.Sprintf("%v body bit %d", c.dims, bit), z.Bytes(), c.dims)
			raw[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// TestDecompressRefusesLevelCount64 pins the one refusal the shared walk
// added: a body declaring L = 64 is corrupt. The closure walk divided by
// a zero spacing on it; walk could decode it, but no encoder writes it.
// The same body declaring L = 63 still decodes, as it did.
func TestDecompressRefusesLevelCount64(t *testing.T) {
	payload, err := Codec{}.Compress([]float64{1, 2, 3}, []int{3}, compress.AbsLinf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	// declare re-frames the body with L levels: zero budgets pad the
	// declared ones out to L+1.
	declare := func(L int) []byte {
		old := int(binary.LittleEndian.Uint32(raw))
		body := binary.LittleEndian.AppendUint32(nil, uint32(L))
		body = append(body, raw[4:4+8*(old+1)]...)
		body = append(body, make([]byte, 8*(L-old))...)
		body = append(body, raw[4+8*(old+1):]...)
		var z bytes.Buffer
		fw, _ := flate.NewWriter(&z, flate.BestSpeed)
		fw.Write(body)
		fw.Close()
		return z.Bytes()
	}
	if _, err := (Codec{}).Decompress(declare(63), []int{3}); err != nil {
		t.Fatalf("L = 63: %v", err)
	}
	checkMatchesClosureWalk(t, "L = 63", declare(63), []int{3})
	if _, err := (Codec{}).Decompress(declare(64), []int{3}); err == nil {
		t.Fatal("L = 64 decoded")
	}
}
