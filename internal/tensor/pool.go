package tensor

// Scratch-buffer machinery for hot training loops. The per-step
// allocation profile of forward/backward passes is dominated by a small
// set of shape-stable matrices (layer activations, gradient scratch,
// im2col transposes); reusing their backing storage across steps removes
// nearly all steady-state garbage. Two tools cooperate here:
//
//   - EnsureMatrix resizes a caller-owned scratch matrix in place,
//     reallocating only when capacity is insufficient (layers keep one
//     scratch per role);
//   - MatrixPool is a free list for matrices whose lifetime is a single
//     step but whose count varies (per-shard input slices in the
//     data-parallel trainer).
//
// Neither is safe for concurrent use: a pool belongs to one goroutine
// (the trainer gives each worker its own), exactly like the network
// replica it feeds.

// EnsureMatrix returns a rows x cols matrix reusing m's backing array
// when it has sufficient capacity; otherwise (or when m is nil) it
// allocates fresh storage. The returned matrix's contents are
// unspecified — callers that accumulate must zero it first (see
// ZeroMatrix).
func EnsureMatrix(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// ZeroMatrix clears every entry of m and returns it.
func ZeroMatrix(m *Matrix) *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// CopyFrom resizes m to src's shape (reusing storage when possible) and
// copies src's entries; it returns the destination, which may differ
// from m when a reallocation was needed.
func (m *Matrix) CopyFrom(src *Matrix) *Matrix {
	dst := EnsureMatrix(m, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

// ColRangeInto copies columns [lo, hi) of m into dst (resized as
// needed), preserving row order. It returns the destination matrix.
func (m *Matrix) ColRangeInto(lo, hi int, dst *Matrix) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic("tensor: ColRangeInto range out of bounds")
	}
	w := hi - lo
	dst = EnsureMatrix(dst, m.Rows, w)
	for r := 0; r < m.Rows; r++ {
		copy(dst.Data[r*w:(r+1)*w], m.Data[r*m.Cols+lo:r*m.Cols+hi])
	}
	return dst
}

// MatrixPool is a single-goroutine free list of scratch matrices. Get
// prefers the most recently returned buffer with enough capacity; Put
// recycles a matrix for a later Get. The zero value is ready to use.
type MatrixPool struct {
	free []*Matrix
}

// Get returns a rows x cols matrix, reusing a pooled buffer when one
// with sufficient capacity exists. Contents are unspecified.
func (p *MatrixPool) Get(rows, cols int) *Matrix {
	n := rows * cols
	for i := len(p.free) - 1; i >= 0; i-- {
		if m := p.free[i]; cap(m.Data) >= n {
			p.free = append(p.free[:i], p.free[i+1:]...)
			m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
			return m
		}
	}
	return NewMatrix(rows, cols)
}

// Put recycles m into the pool. The caller must not use m afterwards.
func (p *MatrixPool) Put(m *Matrix) {
	if m == nil {
		return
	}
	p.free = append(p.free, m)
}
