package score

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// The bulk-scoring bench (BENCH_score.json): simulated scored-elements
// throughput versus compression tolerance for the three codecs. The
// pipeline's streaming throughput is bounded by its slowest phase —
// simulated storage+decode versus simulated execution — reproducing the
// paper's effect: loose tolerances multiply effective I/O bandwidth
// (ZFP stays cheap to decode) while stringent tolerances drag SZ/MGARD
// below the raw-read baseline.

type scoreBenchRow struct {
	Codec           string  `json:"codec"`
	Tol             float64 `json:"tol"`
	Chunks          int64   `json:"chunks"`
	Samples         int64   `json:"samples"`
	Ratio           float64 `json:"compression_ratio"`
	AchievedLinfMax float64 `json:"achieved_linf_max"`
	MeanBound       float64 `json:"mean_bound"`
	SimReadNS       int64   `json:"sim_read_ns"`
	SimDecodeNS     int64   `json:"sim_decode_ns"`
	SimExecNS       int64   `json:"sim_exec_ns"`
	// ElemsPerSec is Elems / max(simRead+simDecode, simExec): the staged
	// pipeline streams, so the slowest phase sets the rate.
	ElemsPerSec float64 `json:"scored_elems_per_sec"`
}

// TestWriteScoreBenchJSON regenerates the committed bulk-scoring bench.
// Run with:
//
//	ERRPROP_SCORE_BENCH_OUT=BENCH_score.json go test ./internal/score -run TestWriteScoreBenchJSON -count=1
func TestWriteScoreBenchJSON(t *testing.T) {
	out := os.Getenv("ERRPROP_SCORE_BENCH_OUT")
	if out == "" {
		t.Skip("set ERRPROP_SCORE_BENCH_OUT to write the bulk-scoring bench")
	}

	const features, samples, chunkSamples = 9, 131072, 8192
	net, err := nn.MLPSpec("bench-score", []int{features, 64, 64, features}, nn.ActTanh, true).Build(17)
	if err != nil {
		t.Fatal(err)
	}

	art, err := artifact.Build(net, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	var rows []scoreBenchRow
	for _, codec := range []string{"sz", "zfp", "mgard"} {
		for _, tol := range []float64{1e-2, 1e-3, 1e-4} {
			dir, man := writeTestDataset(t, codec, tol, features, samples, chunkSamples)
			res, err := ScoreArtifact(art, man, Config{
				Dir: dir, Batch: 256, DiscardChunkResults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			a := res.Agg
			var achieved float64
			for _, c := range man.Chunks {
				if c.AchievedLinf > achieved {
					achieved = c.AchievedLinf
				}
			}
			row := scoreBenchRow{
				Codec: codec, Tol: tol, Chunks: a.Chunks, Samples: a.Samples,
				Ratio:           float64(a.RawBytes) / float64(a.StoredBytes),
				AchievedLinfMax: achieved,
				MeanBound:       a.MeanBound(),
				SimReadNS:       int64(a.SimRead), SimDecodeNS: int64(a.SimDecode), SimExecNS: int64(a.SimExec),
			}
			simIO := a.SimRead + a.SimDecode
			slowest := simIO
			if a.SimExec > slowest {
				slowest = a.SimExec
			}
			if slowest > 0 {
				row.ElemsPerSec = float64(a.Elems) / slowest.Seconds()
			}
			rows = append(rows, row)
			t.Logf("%-5s tol %g: ratio %.1fx, %.3g elems/s (io %v, exec %v)",
				codec, tol, row.Ratio, row.ElemsPerSec, simIO, a.SimExec)
		}
	}

	doc := map[string]any{
		"bench": "score",
		"description": "bulk offline scoring: simulated scored-elements/sec vs compression tolerance per codec; " +
			"rate = elems / max(sim read+decode, sim exec) since the staged pipeline streams at the slowest phase; " +
			"storage is the paper's 2.8 GB/s Lustre baseline, execution the simulated RTX 3080 Ti at FP16",
		"model": "9-64-64-9 tanh (psn), fp16 weights, batch 256",
		"dataset": map[string]any{
			"features": features, "samples": samples, "chunk_samples": chunkSamples,
			"field": "smooth per-feature sin x exp signals",
		},
		"rows": rows,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows)", out, len(rows))
}
