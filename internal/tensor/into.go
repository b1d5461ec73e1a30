package tensor

// Allocation-free kernel for the compiled inference engine (internal/nn
// CompileInference). TInto writes into a caller-owned scratch matrix
// resized with EnsureMatrix and is pure data movement, so it is
// bit-identical to the allocating T it replaces. Bit-identity is
// load-bearing — the certified error bounds are stated for the exact
// arithmetic of the reference forward pass, so a fast path may not
// perturb even the last ulp.

// TInto writes m's transpose into out (resized as needed) and returns
// the destination. Pure data movement: composing TInto with MulInto
// reproduces Mul-of-materialized-transpose results bit for bit. out must
// not alias m.
func (m *Matrix) TInto(out *Matrix) *Matrix {
	out = EnsureMatrix(out, m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		base := r * m.Cols
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[base+c]
		}
	}
	return out
}
