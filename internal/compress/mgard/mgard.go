// Package mgard implements an MGARD-style multilevel error-bounded
// compressor: data on a (1-D or 2-D) grid is decomposed into a dyadic
// hierarchy of piecewise-(bi)linear levels, the per-level detail
// coefficients are uniformly quantized against per-level budgets that
// telescope to the requested tolerance, and the codes are entropy-coded
// with Huffman + flate.
//
// Like the real MGARD, the codec supports both L-infinity and L2 norm
// tolerances (the multilevel structure is what makes L2 control natural),
// and its decode path is the most expensive of the three codecs — the
// behaviour behind its throughput dip at stringent tolerances in Fig. 7.
package mgard

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/huffman"
)

func init() { compress.Register(Codec{}) }

// Codec is the MGARD-style compressor. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "mgard" }

// SupportsMode implements compress.Codec: all modes.
func (Codec) SupportsMode(compress.Mode) bool { return true }

const (
	codeRange  = 1 << 16
	codeCenter = codeRange / 2
	unpredSym  = 0
)

// grid describes the 2-D view of the data (1-D inputs become a single
// row; rank-3 inputs fold their trailing dims into columns).
type grid struct {
	rows, cols int
}

func viewGrid(dims []int) grid {
	switch len(dims) {
	case 1:
		return grid{1, dims[0]}
	case 2:
		return grid{dims[0], dims[1]}
	case 3:
		return grid{dims[0], dims[1] * dims[2]}
	}
	panic("mgard: rank not in 1..3")
}

// levels returns the number of refinement levels for the grid: enough
// that the coarsest grid spacing covers the longest dimension.
func (g grid) levels() int {
	max := g.rows
	if g.cols > max {
		max = g.cols
	}
	l := 0
	for (1 << uint(l)) < max-1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Compress implements compress.Codec.
//
//errprop:deterministic the payload is a pure function of (data, dims, mode, tol)
func (c Codec) Compress(data []float64, dims []int, mode compress.Mode, tol float64) ([]byte, error) {
	g := viewGrid(dims)
	abs := compress.AbsTol(data, mode, tol)
	if abs <= 0 {
		return nil, fmt.Errorf("mgard: tolerance %v resolves to non-positive bound", tol)
	}
	L := g.levels()
	budgets := make([]float64, L+1)
	l2mode := mode == compress.L2 || mode == compress.RelL2

	if !l2mode {
		// Telescoping pointwise budgets: sum_l e_l < abs with finer
		// levels (more coefficients) receiving geometrically more.
		for l := 0; l <= L; l++ {
			budgets[l] = abs * math.Exp2(float64(l-L-1))
		}
		payload, _, err := c.encode(data, g, budgets)
		return payload, err
	}

	// L2 mode: optimistic per-level budgets, verified and tightened until
	// the achieved vector norm is within the bound.
	n := float64(len(data))
	base := abs * math.Sqrt(3) / (float64(L+1) * math.Sqrt(n))
	for l := 0; l <= L; l++ {
		budgets[l] = base * math.Exp2(float64(L-l)/2)
	}
	for iter := 0; iter < 40; iter++ {
		payload, recon, err := c.encode(data, g, budgets)
		if err != nil {
			return nil, err
		}
		_, l2 := compress.MeasureError(data, recon)
		if l2 <= abs {
			return payload, nil
		}
		for l := range budgets {
			budgets[l] /= 2
		}
	}
	return nil, fmt.Errorf("mgard: could not meet L2 bound %v", abs)
}

// encode performs the multilevel decomposition with the given per-level
// pointwise budgets and returns the payload plus the reconstruction the
// decoder will produce.
func (c Codec) encode(data []float64, g grid, budgets []float64) ([]byte, []float64, error) {
	L := len(budgets) - 1
	decoded := make([]float64, len(data))
	var codes []uint32
	var unpred []float64

	walk(g, L, decoded, func(level, idx int, pred float64) {
		eb := budgets[level]
		r := (data[idx] - pred) / (2 * eb)
		q := math.Round(r)
		if math.Abs(q) < codeCenter-1 {
			rec := pred + q*2*eb
			if math.Abs(rec-data[idx]) <= eb {
				codes = append(codes, uint32(int64(q)+codeCenter))
				decoded[idx] = rec
				return
			}
		}
		codes = append(codes, unpredSym)
		unpred = append(unpred, data[idx])
		decoded[idx] = data[idx]
	})

	var raw bytes.Buffer
	binary.Write(&raw, binary.LittleEndian, uint32(L))
	for _, b := range budgets {
		binary.Write(&raw, binary.LittleEndian, math.Float64bits(b))
	}
	binary.Write(&raw, binary.LittleEndian, uint64(len(unpred)))
	for _, u := range unpred {
		binary.Write(&raw, binary.LittleEndian, math.Float64bits(u))
	}
	hblob := huffman.Encode(codes)
	binary.Write(&raw, binary.LittleEndian, uint64(len(hblob)))
	raw.Write(hblob)

	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return nil, nil, err
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		return nil, nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, nil, err
	}
	return out.Bytes(), decoded, nil
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(payload []byte, dims []int) ([]float64, error) {
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
	if L < 0 || L > 63 || p+8*(L+1) > len(raw) {
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
	// Each unpredictable code takes the next stored value.
	stored := 0
	for _, code := range codes {
		if code == unpredSym {
			stored++
		}
	}
	if stored > len(unpred) {
		return nil, compress.ErrCorrupt
	}
	decoded := make([]float64, n)
	ci, ui := 0, 0
	walk(g, L, decoded, func(level, idx int, pred float64) {
		code := codes[ci]
		ci++
		if code == unpredSym {
			decoded[idx] = unpred[ui]
			ui++
			return
		}
		decoded[idx] = pred + float64(int64(code)-codeCenter)*2*budgets[level]
	})
	return decoded, nil
}

// walk visits every grid node exactly once in coarse-to-fine order and
// calls visit with the node's level, its index and its prediction, a
// multilinear interpolation from the coarser nodes of dec, which visit
// has already filled in. Level 0 nodes have a zero prediction (their
// coefficient is the raw value).
//
// The nodes of level l are the indices that are multiples of
// h = 2^(L-l) but, past level 0, not of 2h: a dyadic refinement of the
// grid. A node on an odd row or column interpolates from its coarse
// neighbours on either side; one past the grid's edge clamps to the last
// coarse row or column, which keeps every prediction a convex combination,
// the property the error telescoping needs. Spacings stop growing once
// they pass both extents, where a level holds node 0 alone or nothing.
func walk(g grid, L int, dec []float64, visit func(level, idx int, pred float64)) {
	m := g.cols
	maxShift := bits.Len(uint(max(g.rows, g.cols)))
	h := 1 << min(L, maxShift)
	for r := 0; r < g.rows; r += h {
		for c := 0; c < m; c += h {
			visit(0, r*m+c, 0)
		}
	}
	for level := 1; level <= L; level++ {
		h := 1 << min(L-level, maxShift)
		h2 := 2 * h
		lastRow, lastCol := (g.rows-1)/h2*h2, (g.cols-1)/h2*h2
		for r := 0; r < g.rows; r += h {
			if r&h == 0 { // a coarse row: only its odd columns are new
				for c := h; c < m; c += h2 {
					c1 := c + h
					if c1 >= m {
						c1 = lastCol
					}
					visit(level, r*m+c, 0.5*(dec[r*m+c-h]+dec[r*m+c1]))
				}
				continue
			}
			r0, r1 := r-h, r+h
			if r1 >= g.rows {
				r1 = lastRow
			}
			for c := 0; c < m; c += h {
				if c&h == 0 {
					visit(level, r*m+c, 0.5*(dec[r0*m+c]+dec[r1*m+c]))
					continue
				}
				c1 := c + h
				if c1 >= m {
					c1 = lastCol
				}
				visit(level, r*m+c, 0.25*(dec[r0*m+c-h]+dec[r0*m+c1]+dec[r1*m+c-h]+dec[r1*m+c1]))
			}
		}
	}
}
