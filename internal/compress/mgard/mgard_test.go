package mgard

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scidata/errprop/internal/compress"
)

func TestViewGrid(t *testing.T) {
	if g := viewGrid([]int{7}); g.rows != 1 || g.cols != 7 {
		t.Fatalf("rank1 grid = %+v", g)
	}
	if g := viewGrid([]int{3, 5}); g.rows != 3 || g.cols != 5 {
		t.Fatalf("rank2 grid = %+v", g)
	}
	if g := viewGrid([]int{2, 3, 4}); g.rows != 2 || g.cols != 12 {
		t.Fatalf("rank3 grid = %+v", g)
	}
}

func TestLevels(t *testing.T) {
	if l := (grid{1, 2}).levels(); l != 1 {
		t.Fatalf("levels(1x2) = %d", l)
	}
	if l := (grid{1, 5}).levels(); l != 2 {
		t.Fatalf("levels(1x5) = %d", l)
	}
	if l := (grid{17, 17}).levels(); l != 4 {
		t.Fatalf("levels(17x17) = %d", l)
	}
	if l := (grid{1, 1}).levels(); l != 1 {
		t.Fatalf("levels(1x1) = %d", l)
	}
}

func TestHierarchyVisitsEachNodeOnce(t *testing.T) {
	for _, g := range []grid{{1, 1}, {1, 7}, {5, 5}, {4, 9}, {17, 33}, {3, 3}} {
		L := g.levels()
		seen := make(map[int]int)
		prevLevel := 0
		walk(g, L, make([]float64, g.rows*g.cols), func(level, idx int, _ float64) {
			seen[idx]++
			if level < prevLevel {
				t.Fatalf("grid %+v: levels out of order (%d after %d)", g, level, prevLevel)
			}
			prevLevel = level
		})
		if len(seen) != g.rows*g.cols {
			t.Fatalf("grid %+v: visited %d of %d nodes", g, len(seen), g.rows*g.cols)
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("grid %+v: node %d visited %d times", g, idx, c)
			}
		}
	}
}

func TestPredictionIsConvex(t *testing.T) {
	// With a constant decoded field, every prediction must return exactly
	// that constant (weights sum to 1) — the property the telescoping
	// error argument relies on.
	g := grid{9, 13}
	L := g.levels()
	dec := make([]float64, g.rows*g.cols)
	for i := range dec {
		dec[i] = 4.5
	}
	walk(g, L, dec, func(level, idx int, p float64) {
		if level == 0 {
			return
		}
		if math.Abs(p-4.5) > 1e-12 {
			t.Fatalf("prediction %v at idx %d not convex", p, idx)
		}
	})
}

func TestLinfTelescoping(t *testing.T) {
	// Direct check that the geometric per-level budgets guarantee the
	// pointwise bound on adversarial data.
	rng := rand.New(rand.NewSource(1))
	c := Codec{}
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(40)
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(8)-4))
		}
		tol := math.Exp2(-float64(1 + rng.Intn(20)))
		payload, err := c.Compress(data, []int{rows, cols}, compress.AbsLinf, tol)
		if err != nil {
			t.Fatal(err)
		}
		recon, err := c.Decompress(payload, []int{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if math.Abs(recon[i]-data[i]) > tol {
				t.Fatalf("trial %d: Linf %v > %v", trial, math.Abs(recon[i]-data[i]), tol)
			}
		}
	}
}

func TestL2TighterThanNaive(t *testing.T) {
	// On smooth data the multilevel L2 allocation should compress better
	// than a naive pointwise tol/sqrt(n) scheme would allow. We check the
	// achieved L2 is within bound and the ratio is sane.
	n := 4096
	data := make([]float64, n)
	for i := range data {
		x := float64(i) / float64(n)
		data[i] = math.Sin(12*x) + 0.2*math.Cos(40*x)
	}
	c := Codec{}
	tol := 1e-3
	payload, err := c.Compress(data, []int{n}, compress.L2, tol)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := c.Decompress(payload, []int{n})
	if err != nil {
		t.Fatal(err)
	}
	if _, l2 := compress.MeasureError(data, recon); l2 > tol {
		t.Fatalf("L2 %v > %v", l2, tol)
	}
	if r := float64(n*8) / float64(len(payload)); r < 4 {
		t.Fatalf("L2-mode ratio only %.2f", r)
	}
}

func TestSingleElement(t *testing.T) {
	c := Codec{}
	data := []float64{math.Pi}
	payload, err := c.Compress(data, []int{1}, compress.AbsLinf, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := c.Decompress(payload, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recon[0]-math.Pi) > 1e-9 {
		t.Fatalf("single element error %v", math.Abs(recon[0]-math.Pi))
	}
}

func TestDecompressGarbage(t *testing.T) {
	c := Codec{}
	if _, err := c.Decompress([]byte{1, 2, 3}, []int{4}); err == nil {
		t.Fatal("garbage should error")
	}
}
