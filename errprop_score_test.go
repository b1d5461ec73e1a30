package errprop_test

import (
	"math"
	"path/filepath"
	"testing"

	errprop "github.com/scidata/errprop"
)

// TestFacadeBulkScoring drives the full public bulk-scoring surface:
// write a chunked dataset with certified achieved errors, score it
// through a quantized model, and check the determinism and accounting
// contracts hold through the facade.
func TestFacadeBulkScoring(t *testing.T) {
	const features, samples = 6, 192
	net, err := errprop.MLPSpec("facade-score", []int{features, 12, 4}, errprop.ActTanh, true).Build(3)
	if err != nil {
		t.Fatal(err)
	}

	field := make([]float64, features*samples)
	for f := 0; f < features; f++ {
		for c := 0; c < samples; c++ {
			x := float64(c) / samples
			field[f*samples+c] = math.Sin(2*math.Pi*x*float64(f+1)) * math.Exp(-x)
		}
	}
	dir := t.TempDir()
	man, err := errprop.WriteScoreDataset(dir, field, features, errprop.ScoreDatasetConfig{
		Codec: "zfp", Mode: errprop.AbsLinf, Tol: 1e-3, ChunkSamples: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The manifest written to disk round-trips through the facade reader.
	onDisk, err := errprop.ReadScoreManifest(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Chunks) != len(man.Chunks) || onDisk.Codec != "zfp" {
		t.Fatalf("manifest round trip drift: %+v", onDisk)
	}

	an, err := errprop.Analyze(net, errprop.FP16)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * an.QuantizationBound()
	art, err := errprop.BuildArtifact(net, errprop.FP16)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := errprop.ScoreArtifactFile(art, filepath.Join(dir, "MANIFEST"), errprop.ScoreConfig{
		QoIBudget: budget, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Agg.Samples != samples {
		t.Fatalf("scored %d samples, want %d", ref.Agg.Samples, samples)
	}
	if ref.QuantBound != an.QuantizationBound() {
		t.Fatalf("facade quant bound %g != Analyze's %g", ref.QuantBound, an.QuantizationBound())
	}
	for i, cr := range ref.Chunks {
		if cr.Bound < ref.QuantBound {
			t.Fatalf("chunk %d bound %g below quantization floor %g", i, cr.Bound, ref.QuantBound)
		}
	}

	got, err := errprop.ScoreArtifact(art, man, errprop.ScoreConfig{
		QoIBudget: budget, Workers: 4, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != len(ref.Chunks) {
		t.Fatalf("worker counts disagree on chunk count")
	}
	for i := range got.Chunks {
		for d := range got.Chunks[i].Sum {
			if math.Float64bits(got.Chunks[i].Sum[d]) != math.Float64bits(ref.Chunks[i].Sum[d]) {
				t.Fatalf("chunk %d differs across worker counts", i)
			}
		}
		if got.Chunks[i].Bound != ref.Chunks[i].Bound {
			t.Fatalf("chunk %d certified bound differs across worker counts", i)
		}
	}
	if math.Float64bits(got.Agg.BoundWeighted) != math.Float64bits(ref.Agg.BoundWeighted) {
		t.Fatal("aggregate bound accounting differs across worker counts")
	}
}
