// Bulkscore: write a chunked compressed dataset with certified achieved
// errors, score it through a quantized model with per-chunk certified
// QoI bounds, kill the run halfway, resume it from its cursor, and show
// that the resumed run's results are bit-identical to an uninterrupted
// one.
//
//	go run ./examples/bulkscore
package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	errprop "github.com/scidata/errprop"
)

func main() {
	if err := demo(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var errKilled = errors.New("simulated crash")

func demo() error {
	work, err := os.MkdirTemp("", "bulkscore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// 1. A synthetic 6-feature scientific field, written as a chunked
	//    SZ-compressed dataset. Each chunk's *achieved* reconstruction
	//    error is measured against the original and certified into the
	//    manifest.
	const features, samples = 6, 2048
	field := make([]float64, features*samples)
	for f := 0; f < features; f++ {
		for c := 0; c < samples; c++ {
			x := float64(c) / samples
			field[f*samples+c] = math.Sin(2*math.Pi*x*float64(f+1)) * math.Exp(-x)
		}
	}
	ds := filepath.Join(work, "ds")
	man, err := errprop.WriteScoreDataset(ds, field, features, errprop.ScoreDatasetConfig{
		Codec: "sz", Mode: errprop.AbsLinf, Tol: 1e-3, ChunkSamples: 128,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d chunks, achieved linf <= %g (requested %g)\n",
		len(man.Chunks), maxAchieved(man), man.Tol)

	// 2. A model to score with, served in FP16.
	net, err := errprop.MLPSpec("bulk", []int{features, 32, 4}, errprop.ActTanh, true).Build(7)
	if err != nil {
		return err
	}
	art, err := errprop.BuildArtifact(net, errprop.FP16)
	if err != nil {
		return err
	}
	an, err := errprop.Analyze(net, errprop.FP16)
	if err != nil {
		return err
	}
	// Budget: what Inequality (3) predicts for the requested codec
	// tolerance, with a little headroom — so intact chunks land within
	// budget and any chunk whose achieved error were worse would not.
	budget := 1.2 * an.BoundLinf(man.Tol)
	base := errprop.ScoreConfig{QoIBudget: budget, Dir: ds}

	// 3. Reference: one uninterrupted run.
	ref, err := errprop.ScoreArtifact(art, man, base)
	if err != nil {
		return err
	}
	fmt.Printf("reference: mean bound %.3g, max bound %.3g, %d/%d chunks within budget %.3g\n",
		ref.Agg.MeanBound(), ref.Agg.MaxBound, ref.Agg.Chunks-ref.Agg.OverBudget, ref.Agg.Chunks, budget)

	// 4. Crash drill: same scoring with a cursor directory, killed after
	//    5 committed chunks...
	crash := base
	crash.CursorDir = filepath.Join(work, "cursors")
	crash.CheckpointEvery = 2
	commits := 0
	crash.OnChunk = func(*errprop.ScoreChunkResult) error {
		if commits++; commits >= 5 {
			return errKilled
		}
		return nil
	}
	if _, err := errprop.ScoreArtifact(art, man, crash); !errors.Is(err, errKilled) {
		return fmt.Errorf("crash run: %v", err)
	}

	// 5. ...then resumed from the newest intact cursor.
	resume := base
	resume.CursorDir = crash.CursorDir
	res, err := errprop.ScoreArtifact(art, man, resume)
	if err != nil {
		return err
	}
	fmt.Printf("resumed at chunk %d\n", res.ResumedFrom)

	// 6. The resumed aggregate is bit-identical to the reference.
	for d := range ref.Agg.Sum {
		if math.Float64bits(ref.Agg.Sum[d]) != math.Float64bits(res.Agg.Sum[d]) {
			return fmt.Errorf("aggregate differs at output %d", d)
		}
	}
	if math.Float64bits(ref.Agg.BoundWeighted) != math.Float64bits(res.Agg.BoundWeighted) {
		return fmt.Errorf("bound accounting differs")
	}
	fmt.Println("kill + resume: aggregate and certified bounds bit-identical")
	return nil
}

func maxAchieved(man *errprop.ScoreManifest) float64 {
	var m float64
	for _, c := range man.Chunks {
		if c.AchievedLinf > m {
			m = c.AchievedLinf
		}
	}
	return m
}
