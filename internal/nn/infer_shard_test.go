package nn

import (
	"math/rand"
	"testing"
)

// Sharded execution must be invisible in the numbers: for any shard
// count, Engine.Forward output is exactly == the legacy Network.Forward
// and the unsharded engine. The matrix below crosses shard counts
// {1, 2, 3, 8} with every golden architecture and batch widths chosen to
// hit the shard planner's edges — batch < shards (idle lanes), batch not
// divisible by shards (uneven fixed boundaries), batch == shards
// (1-column lanes), and batch > maxBatch (arena growth under sharding).

var shardCounts = []int{1, 2, 3, 8}

// bindSharded compiles net's program and binds it across shards lanes.
func bindSharded(net *Network, maxBatch, shards int) (*Engine, error) {
	p, err := CompileProgram(net)
	if err != nil {
		return nil, err
	}
	return p.Bind(net, maxBatch, shards)
}

func TestEngineShardEquivalence(t *testing.T) {
	for _, spec := range goldenInferSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			net := buildGolden(t, spec, 7)
			const maxBatch = 8
			base, err := CompileInference(net, maxBatch)
			if err != nil {
				t.Fatalf("compile unsharded: %v", err)
			}
			engines := make(map[int]*Engine, len(shardCounts))
			for _, sc := range shardCounts {
				eng, err := bindSharded(net, maxBatch, sc)
				if err != nil {
					t.Fatalf("compile shards=%d: %v", sc, err)
				}
				engines[sc] = eng
			}
			rng := rand.New(rand.NewSource(23))
			for _, batch := range []int{1, 2, 3, 5, 7, 8, 11} {
				for rep := 0; rep < 2; rep++ {
					x := randInferBatch(rng, spec.InputDim, batch)
					want := net.Forward(x, false)
					ref := base.Forward(x)
					if !bitEqual(ref.Data, want.Data) {
						t.Fatalf("batch %d: unsharded engine differs from legacy Forward", batch)
					}
					for _, sc := range shardCounts {
						got := engines[sc].Forward(x)
						if got.Rows != want.Rows || got.Cols != want.Cols {
							t.Fatalf("shards=%d batch=%d: shape %dx%d, want %dx%d",
								sc, batch, got.Rows, got.Cols, want.Rows, want.Cols)
						}
						if !bitEqual(got.Data, want.Data) {
							t.Fatalf("shards=%d batch=%d rep=%d: sharded output not bit-identical to legacy Forward",
								sc, batch, rep)
						}
					}
				}
			}
		})
	}
}

// TestEngineShardedZeroAllocs extends the steady-state allocation
// guarantee to sharded execution: per-lane arenas, the join buffer, and
// the stored spawn closures are all compile-time objects, so a warmed
// sharded Forward must not touch the heap — goroutine hand-off included.
func TestEngineShardedZeroAllocs(t *testing.T) {
	specs := []*Spec{
		MLPSpec("mlp-psn", []int{9, 16, 12, 9}, ActTanh, true),
		ResNetSpec("resnet", 1, 8, 8, 4, []int{1, 1}, []int{4, 8}, ActReLU, true),
		UNetSpec("unet", 2, 8, 8, 3, 4, ActReLU, true),
	}
	for _, spec := range specs {
		spec := spec
		for _, sc := range []int{2, 3} {
			t.Run(spec.Name, func(t *testing.T) {
				net := buildGolden(t, spec, 7)
				eng, err := bindSharded(net, 8, sc)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				rng := rand.New(rand.NewSource(13))
				x := randInferBatch(rng, spec.InputDim, 8)
				eng.Forward(x) // warm arenas and the join buffer
				if allocs := testing.AllocsPerRun(30, func() { eng.Forward(x) }); allocs != 0 {
					t.Fatalf("shards=%d steady-state Forward: %v allocs/op, want 0", sc, allocs)
				}
			})
		}
	}
}

// TestEngineShardClamp pins the planner's edge rules: shard counts above
// maxBatch clamp (a lane never owns zero columns at full width), and a
// batch smaller than the lane count leaves the extra lanes idle rather
// than splitting below one column.
func TestEngineShardClamp(t *testing.T) {
	spec := MLPSpec("clamp", []int{5, 8, 3}, ActTanh, false)
	net := buildGolden(t, spec, 3)
	eng, err := bindSharded(net, 4, 64)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d, want clamp to maxBatch 4", eng.Shards())
	}
	rng := rand.New(rand.NewSource(29))
	for _, batch := range []int{1, 2, 3, 4, 9} {
		x := randInferBatch(rng, 5, batch)
		want := net.Forward(x, false)
		if got := eng.Forward(x); !bitEqual(got.Data, want.Data) {
			t.Fatalf("batch %d: clamped sharded output differs", batch)
		}
	}
	if _, err := bindSharded(net, 4, 0); err == nil {
		t.Fatal("expected error for shards=0")
	}
	if _, err := bindSharded(net, 4, -1); err == nil {
		t.Fatal("expected error for negative shards")
	}
}

// TestEngineShardInputNotAliased guards the lane input hazard: a
// single-column call binds the caller's matrix as the lane-0 input slot,
// and a subsequent sharded call must not write shard slices through that
// stale binding into caller-owned memory.
func TestEngineShardInputNotAliased(t *testing.T) {
	spec := MLPSpec("alias", []int{6, 9, 4}, ActTanh, false)
	net := buildGolden(t, spec, 11)
	eng, err := bindSharded(net, 8, 4)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	x1 := randInferBatch(rng, 6, 1) // routes through the 1-lane fast path
	snap := append([]float64(nil), x1.Data...)
	eng.Forward(x1)
	x8 := randInferBatch(rng, 6, 8) // sharded call after the fast path
	want := net.Forward(x8, false)
	if got := eng.Forward(x8); !bitEqual(got.Data, want.Data) {
		t.Fatal("sharded call after single-column call lost bit-identity")
	}
	if !bitEqual(x1.Data, snap) {
		t.Fatal("sharded call wrote through a stale input binding into caller memory")
	}
}
