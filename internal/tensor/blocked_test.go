package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked kernels' contract is byte-exact equality with the naive
// reference loops — not closeness. Every test here compares
// math.Float64bits so that -0 vs +0 and last-ulp rounding differences
// count as failures. The single sanctioned relaxation: when BOTH sides
// are NaN the payload bits may differ, because IEEE 754 leaves NaN
// payload propagation unspecified and the compiler is free to commute
// the operands of a float add (x86 ADDSD keeps the first operand's
// payload when two NaNs meet). Every non-NaN result — including the
// sign of zeros and infinities — is still required to match exactly.

// fillSpecial populates data with a mix of normal values and the
// special-value palette the zero-skip path is sensitive to: exact zeros
// (both signs), NaN, infinities, and denormals.
func fillSpecial(rng *rand.Rand, data []float64) {
	palette := []float64{
		0, math.Copysign(0, -1), 1.5, -2.25,
		math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1e308, -1e308,
	}
	for i := range data {
		if rng.Intn(4) == 0 {
			data[i] = palette[rng.Intn(len(palette))]
		} else {
			data[i] = rng.NormFloat64()
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	fillSpecial(rng, m.Data)
	return m
}

// requireBitEqual fails unless got and want agree byte for byte.
func requireBitEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !bitsMatch(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				label, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// bitsMatch is bit equality with the NaN-payload carve-out described in
// the package comment above.
func bitsMatch(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// blockedShapes covers the panel boundaries (rows below, at, and past
// the 4-row block), degenerate 0/1-sized dimensions, and shapes like the
// engine's dense/conv/attention matmuls.
var blockedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 3, 2},
	{3, 2, 1},
	{4, 4, 4},
	{5, 7, 3},
	{7, 1, 9},
	{8, 9, 16},
	{2, 0, 3}, // empty inner dimension: output must be all zeros
	{0, 4, 3}, // no output rows
	{4, 3, 0}, // no output columns
	{16, 12, 16},
	{9, 64, 31},
	{8, 72, 130},
}

func TestMulIntoBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sh := range blockedShapes {
		for trial := 0; trial < 4; trial++ {
			a := randMat(rng, sh.m, sh.k)
			b := randMat(rng, sh.k, sh.n)
			want := a.MulInto(b, nil)
			got := a.MulIntoBlocked(b, nil)
			requireBitEqual(t, "MulIntoBlocked", got, want)
			// Scratch reuse must not leak stale values through the
			// zero-skip path.
			for i := range got.Data {
				got.Data[i] = math.NaN()
			}
			got = a.MulIntoBlocked(b, got)
			requireBitEqual(t, "MulIntoBlocked(reused scratch)", got, want)
		}
	}
}

// The blocked kernel must also replicate the naive kernel's panic
// behavior on shape mismatch — same fail-fast contract.
func TestBlockedShapePanicParity(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(5, 2) // mismatched everywhere
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on shape mismatch", name)
			}
		}()
		f()
	}
	mustPanic("MulIntoBlocked", func() { a.MulIntoBlocked(b, nil) })
}
