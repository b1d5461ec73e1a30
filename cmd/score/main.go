// Command score is the dataset-scale offline scorer: it streams a
// chunked, checksummed dataset (written by -write or by
// errprop.WriteScoreDataset) through a model with per-chunk certified
// error accounting, durable JSONL results, and crash-safe bit-identical
// resume.
//
// Write a synthetic demo dataset, then score it:
//
//	score -write ds -codec sz -tol 1e-3 -features 9 -samples 4096
//	score -manifest ds/MANIFEST -demo -format fp16 -budget 0.05 \
//	      -out results.jsonl -summary summary.json -cursor-dir ds/cursors
//
// A run killed at any point (try -exit-after N, which exits 7 after N
// committed chunks) resumes from its cursor directory and produces a
// byte-identical result log and summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	errprop "github.com/scidata/errprop"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/integrity"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	var (
		// Dataset writing.
		write    = fs.String("write", "", "write a synthetic dataset into this directory and exit")
		codec    = fs.String("codec", "sz", "compression codec for -write (sz|zfp|mgard)")
		tol      = fs.Float64("tol", 1e-3, "absolute L-infinity compression tolerance for -write")
		features = fs.Int("features", 9, "feature dimension for -write")
		samples  = fs.Int("samples", 4096, "sample count for -write")
		chunk    = fs.Int("chunk", 256, "samples per chunk for -write")
		seed     = fs.Uint64("seed", 42, "deterministic field seed for -write")

		// Scoring.
		manifest  = fs.String("manifest", "", "manifest file of the dataset to score")
		demo      = fs.Bool("demo", false, "score with the built-in demo model (9-feature H2-combustion MLP shape)")
		modelPath = fs.String("model", "", "score with a compiled .aot artifact or a saved model file (nn.Save format)")
		format    = fs.String("format", "fp32", "weight format a spec model (-demo or a saved model) is compiled at (fp32|tf32|bf16|fp16|int8|fp8e4m3|fp8e5m2); an .aot artifact keeps its own")
		budget    = fs.Float64("budget", 0, "per-sample QoI error budget (0 = report bounds without admission)")
		workers   = fs.Int("workers", 0, "pipeline workers (0 = GOMAXPROCS; never changes results)")
		batch     = fs.Int("batch", 256, "forward-pass batch size")

		out       = fs.String("out", "", "durable per-chunk JSONL result log")
		summary   = fs.String("summary", "", "write the deterministic aggregate summary JSON here")
		cursorDir = fs.String("cursor-dir", "", "cursor directory enabling crash-safe resume")
		ckptEvery = fs.Int("checkpoint-every", 16, "commits between cursor checkpoints")
		skip      = fs.Bool("skip-corrupt", false, "report-and-skip corrupt chunks instead of failing")
		exitAfter = fs.Int("exit-after", 0, "crash drill: exit 7 after N committed chunks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *write != "" {
		return writeDataset(*write, *codec, *tol, *features, *samples, *chunk, *seed)
	}
	if *manifest == "" {
		return fmt.Errorf("pass -manifest to score or -write to generate a dataset")
	}

	f, err := errprop.ParseFormat(strings.ToLower(*format))
	if err != nil {
		return fmt.Errorf("-format: %w", err)
	}
	art, err := loadModel(*demo, *modelPath, f)
	if err != nil {
		return err
	}

	cfg := errprop.ScoreConfig{
		QoIBudget:       *budget,
		Workers:         *workers,
		Batch:           *batch,
		CursorDir:       *cursorDir,
		CheckpointEvery: *ckptEvery,
		SkipCorrupt:     *skip,
		// The CLI streams results to the log; keeping every chunk result
		// in memory too would defeat dataset-scale bounded memory.
		DiscardChunkResults: true,
	}
	if *out != "" {
		rl, err := errprop.OpenScoreResultLog(*out)
		if err != nil {
			return err
		}
		defer rl.Close()
		cfg.Results = rl
	}
	if *exitAfter > 0 {
		commits := 0
		n := *exitAfter
		cfg.OnChunk = func(*errprop.ScoreChunkResult) error {
			commits++
			if commits >= n {
				// Crash drill: die without any orderly shutdown, exactly
				// like a kill -9 between two checkpoints.
				os.Exit(7)
			}
			return nil
		}
	}

	start := time.Now()
	res, err := errprop.ScoreArtifactFile(art, *manifest, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if *summary != "" {
		if err := writeSummary(*summary, res); err != nil {
			return err
		}
	}
	report(os.Stderr, res, wall)
	return nil
}

// writeDataset generates a deterministic synthetic multi-physics field
// (smooth per-feature signals plus seeded low-amplitude noise, the shape
// scientific scalar fields take) and writes it as a chunked dataset.
func writeDataset(dir, codec string, tol float64, features, samples, chunk int, seed uint64) error {
	if features <= 0 || samples <= 0 {
		return fmt.Errorf("need positive -features and -samples")
	}
	rng := detrand.New(seed)
	field := make([]float64, features*samples)
	for f := 0; f < features; f++ {
		phase := rng.Float64() * 2 * math.Pi
		for c := 0; c < samples; c++ {
			x := float64(c) / float64(samples)
			field[f*samples+c] = math.Sin(2*math.Pi*x*float64(f+1)+phase)*math.Exp(-x) +
				0.01*(rng.Float64()*2-1)
		}
	}
	man, err := errprop.WriteScoreDataset(dir, field, features, errprop.ScoreDatasetConfig{
		Codec: codec, Mode: errprop.AbsLinf, Tol: tol, ChunkSamples: chunk,
	})
	if err != nil {
		return err
	}
	var stored int64
	for _, c := range man.Chunks {
		stored += c.Bytes
	}
	fmt.Fprintf(os.Stderr, "wrote %d chunks (%d samples x %d features, %s tol %g) to %s: %d -> %d bytes (%.1fx)\n",
		len(man.Chunks), samples, features, codec, tol, dir,
		int64(len(field)*8), stored, float64(len(field)*8)/float64(stored))
	return nil
}

// loadModel resolves -demo/-model into the artifact to score: the demo
// and saved models are compiled at f in memory, and an .aot artifact is
// decoded and verified with its own format (a damaged file is a typed
// refusal naming it, never a silently scored model).
func loadModel(demo bool, path string, f errprop.Format) (*errprop.Artifact, error) {
	switch {
	case demo && path != "":
		return nil, fmt.Errorf("pass -demo or -model, not both")
	case demo:
		net, err := errprop.MLPSpec("demo", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(1)
		if err != nil {
			return nil, err
		}
		return errprop.BuildArtifact(net, f)
	case path != "":
		art, _, err := errprop.LoadArtifact(path, f)
		if err != nil {
			return nil, fmt.Errorf("refusing to score: %w", err)
		}
		return art, nil
	default:
		return nil, fmt.Errorf("pass -demo or -model path")
	}
}

// summaryDoc is the deterministic aggregate summary: a pure function of
// the scoring result (no wall times, no timestamps), so an interrupted +
// resumed run writes byte-identical JSON to an uninterrupted one.
type summaryDoc struct {
	Chunks      int64     `json:"chunks"`
	Skipped     int64     `json:"skipped"`
	Samples     int64     `json:"samples"`
	Elems       int64     `json:"elems"`
	Mean        []float64 `json:"mean"`
	Min         []float64 `json:"min"`
	Max         []float64 `json:"max"`
	QuantBound  float64   `json:"quant_bound"`
	InputTolL2  float64   `json:"input_tol_l2,omitempty"`
	MeanBound   float64   `json:"mean_bound"`
	MaxBound    float64   `json:"max_bound"`
	OverBudget  int64     `json:"over_budget"`
	StoredBytes int64     `json:"stored_bytes"`
	RawBytes    int64     `json:"raw_bytes"`
	SimReadNS   int64     `json:"sim_read_ns"`
	SimDecodeNS int64     `json:"sim_decode_ns"`
	SimExecNS   int64     `json:"sim_exec_ns"`
	Retries     int64     `json:"retries"`
}

func writeSummary(path string, res *errprop.ScoreResult) error {
	a := res.Agg
	doc := summaryDoc{
		Chunks: a.Chunks, Skipped: a.Skipped, Samples: a.Samples, Elems: a.Elems,
		Mean: a.Mean(), Min: a.Min, Max: a.Max,
		QuantBound: res.QuantBound,
		MeanBound:  a.MeanBound(), MaxBound: a.MaxBound, OverBudget: a.OverBudget,
		StoredBytes: a.StoredBytes, RawBytes: a.RawBytes,
		SimReadNS: int64(a.SimRead), SimDecodeNS: int64(a.SimDecode), SimExecNS: int64(a.SimExec),
		Retries: a.Retries,
		// Resume provenance is intentionally NOT in the summary: the whole
		// point is that a resumed run's output is indistinguishable.
	}
	if !math.IsInf(res.InputTolL2, 1) {
		doc.InputTolL2 = res.InputTolL2
	}
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return integrity.WriteFileAtomic(path, append(raw, '\n'))
}

func report(w *os.File, res *errprop.ScoreResult, wall time.Duration) {
	a := res.Agg
	fmt.Fprintf(w, "scored %d chunks (%d samples, %d skipped) in %v\n", a.Chunks, a.Samples, a.Skipped, wall.Round(time.Millisecond))
	if res.Resumed {
		fmt.Fprintf(w, "resumed at chunk %d from cursor\n", res.ResumedFrom)
	}
	fmt.Fprintf(w, "certified: quant bound %.3g, mean bound %.3g, max bound %.3g, %d chunks over budget\n",
		res.QuantBound, a.MeanBound(), a.MaxBound, a.OverBudget)
	fmt.Fprintf(w, "simulated: read %v + decode %v + exec %v (%d retries), %.1fx compression\n",
		a.SimRead, a.SimDecode, a.SimExec, a.Retries, float64(a.RawBytes)/float64(a.StoredBytes))
}
