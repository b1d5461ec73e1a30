package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential kernel fuzzing: the fuzzer drives shapes and a value
// seed; the property is byte-exact agreement between the blocked kernel
// and the naive reference loop. Wired into `make fuzz-smoke` so a
// schedule change that breaks bit-identity fails CI within seconds.

// fuzzDim maps a raw fuzz byte to a dimension in [0, 17): small enough
// to stay fast, large enough to cross the 4-row panel boundaries with
// remainders.
func fuzzDim(b byte) int { return int(b) % 17 }

func FuzzMulIntoBlocked(f *testing.F) {
	f.Add(int64(1), byte(4), byte(4), byte(4))
	f.Add(int64(2), byte(1), byte(1), byte(1))
	f.Add(int64(3), byte(5), byte(7), byte(3))
	f.Add(int64(4), byte(0), byte(3), byte(2))
	f.Add(int64(5), byte(9), byte(0), byte(8))
	f.Add(int64(6), byte(13), byte(16), byte(11))
	f.Fuzz(func(t *testing.T, seed int64, mb, kb, nb byte) {
		m, k, n := fuzzDim(mb), fuzzDim(kb), fuzzDim(nb)
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want := a.MulInto(b, nil)
		got := a.MulIntoBlocked(b, nil)
		diffFail(t, "MulIntoBlocked", got, want)
	})
}

func diffFail(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !bitsMatch(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d bits %#x, want %#x",
				label, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}
