package tensor

import "fmt"

// Cache-blocked, register-tiled matmul kernel for the compiled inference
// engine. MulIntoBlocked is BIT-IDENTICAL to its naive counterpart
// MulInto: for every output element the same multiplications are issued
// in the same ascending-k order, the same zero-multiplicand skips are
// taken, and the sums round through float64 identically — blocking only
// reorders work ACROSS independent output elements, never within one
// element's reduction. (The one unavoidable carve-out: when an element's
// result is NaN its payload bits are unspecified — IEEE 754 leaves NaN
// propagation choice open and the compiler may commute float adds — so
// "identical" means bit-identical for every non-NaN result and
// NaN-for-NaN otherwise. Real networks have finite weights; the
// carve-out is unobservable in any certified deployment.)
// That invariant is what lets the engine swap it in under certified
// Inequality (3) error bounds without a recertification pass; it is
// enforced by differential exactness tests and the FuzzMulIntoBlocked
// target (see blocked_test.go).
//
// The block size is a fixed constant, not tuned at runtime, so a given
// shape always executes the same schedule on every machine.
//
// Scheme: a 4-row panel of A coefficients is broadcast down a streamed
// row of B (one B-row load feeds four output rows — 4x arithmetic
// intensity on the streamed operand). 4 rows * 8 bytes keeps every hot
// panel inside L1 for the model shapes the engine compiles.

// mulBlockRows is the output-row panel height.
const mulBlockRows = 4

// MulIntoBlocked computes m * b into out exactly like MulInto — same
// shapes, same panics, same bit-for-bit results — processing output rows
// in panels of mulBlockRows. Inside a panel each B row is streamed once
// and broadcast against four A coefficients; a fused fast path handles
// the common all-nonzero case, and per-row fallbacks replicate MulInto's
// zero-multiplicand skip exactly. out must not alias m or b.
func (m *Matrix) MulIntoBlocked(b, out *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: mulinto shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out = ZeroMatrix(EnsureMatrix(out, m.Rows, b.Cols))
	n := b.Cols
	i := 0
	for ; i+mulBlockRows <= m.Rows; i += mulBlockRows {
		a0 := m.Data[i*m.Cols : (i+1)*m.Cols]
		a1 := m.Data[(i+1)*m.Cols : (i+2)*m.Cols]
		a2 := m.Data[(i+2)*m.Cols : (i+3)*m.Cols]
		a3 := m.Data[(i+3)*m.Cols : (i+4)*m.Cols]
		o0 := out.Data[i*n : (i+1)*n]
		o1 := out.Data[(i+1)*n : (i+2)*n]
		o2 := out.Data[(i+2)*n : (i+3)*n]
		o3 := out.Data[(i+3)*n : (i+4)*n]
		for k := 0; k < m.Cols; k++ {
			c0, c1, c2, c3 := a0[k], a1[k], a2[k], a3[k]
			brow := b.Data[k*n : (k+1)*n]
			if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
				for j, bv := range brow {
					o0[j] += c0 * bv
					o1[j] += c1 * bv
					o2[j] += c2 * bv
					o3[j] += c3 * bv
				}
				continue
			}
			if c0 != 0 {
				for j, bv := range brow {
					o0[j] += c0 * bv
				}
			}
			if c1 != 0 {
				for j, bv := range brow {
					o1[j] += c1 * bv
				}
			}
			if c2 != 0 {
				for j, bv := range brow {
					o2[j] += c2 * bv
				}
			}
			if c3 != 0 {
				for j, bv := range brow {
					o3[j] += c3 * bv
				}
			}
		}
	}
	for ; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*n : (i+1)*n]
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}
