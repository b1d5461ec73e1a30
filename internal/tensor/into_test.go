package tensor

import (
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestTIntoMatchesT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var buf *Matrix
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {7, 7}, {1, 9}, {9, 1}} {
		m := randMatrix(rng, dims[0], dims[1])
		want := m.T()
		buf = m.TInto(buf)
		if buf.Rows != want.Rows || buf.Cols != want.Cols || !bitEqual(buf.Data, want.Data) {
			t.Fatalf("TInto %dx%d differs from T()", dims[0], dims[1])
		}
	}
}

func TestTIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randMatrix(rng, 6, 4)
	buf := NewMatrix(4, 6)
	out := m.TInto(buf)
	if &out.Data[0] != &buf.Data[0] {
		t.Fatal("TInto reallocated despite sufficient capacity")
	}
	if allocs := testing.AllocsPerRun(20, func() { m.TInto(buf) }); allocs != 0 {
		t.Fatalf("TInto into sized buffer: %v allocs/op, want 0", allocs)
	}
}
