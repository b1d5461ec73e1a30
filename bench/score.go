package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/score"
	"github.com/scidata/errprop/internal/tensor"
)

const (
	// scoreGrid sizes the scored field: H2Combustion on a 256x256 grid,
	// 65,536 samples of 9 features, so a pass takes about a tenth of a
	// second and every one-second window holds several passes.
	scoreGrid = 256
	// chunkSamples is the samples per dataset chunk (16 chunks).
	chunkSamples = 4096
	// scoreWorkers is the scoring concurrency, fixed to the host's two
	// CPUs rather than taken from it.
	scoreWorkers = 2
	// checkedChunks are verified sample by sample against the FP32
	// network on the original field.
	checkedChunks = 2
)

// pass is one cold scoring pass: read the artifact, score every chunk.
// start is its offset from the start of its phase.
type pass struct {
	start, wall, firstChunk time.Duration
	res                     *score.Result
	digest                  uint32
}

// scorePass runs one pass. key tags the pass's spans.
func (e *env) scorePass(manPath string, key uint32) (pass, error) {
	t0 := time.Now()
	art, err := artifact.ReadFile(e.h2.path)
	if err != nil {
		return pass{}, err
	}
	tRead := time.Now()
	var first time.Time
	res, err := score.ScoreArtifactFile(art, manPath, score.Config{
		Workers: scoreWorkers,
		OnChunk: func(*score.ChunkResult) error {
			if first.IsZero() {
				first = time.Now()
			}
			return nil
		},
	})
	if err != nil {
		return pass{}, err
	}
	end := time.Now()
	e.tr.add("artifact.read", t0, tRead, key)
	e.tr.add("score.run", tRead, end, key)
	e.tr.add("score.pass", t0, end, key)
	raw, err := json.Marshal(struct {
		Chunks []score.ChunkResult
		Agg    *score.Aggregate
	}{res.Chunks, res.Agg})
	if err != nil {
		return pass{}, err
	}
	return pass{wall: end.Sub(t0), firstChunk: first.Sub(t0), res: res, digest: crc(raw)}, nil
}

// runScore is the score-loose and score-tight workload: the H2 field
// written once as chunks of codec at tol, then repeated cold passes.
func runScore(e *env, codec string, tol float64) error {
	ds := dataset.H2Combustion(scoreGrid, e.opts.Seed)
	field := ds.FieldData()
	dir := filepath.Join(e.dir, "dataset")
	man, err := score.WriteDataset(dir, field, ds.InDim, score.DatasetConfig{
		Codec: codec, Mode: compress.AbsLinf, Tol: tol, ChunkSamples: chunkSamples,
	})
	if err != nil {
		return err
	}
	manPath := filepath.Join(dir, score.ManifestName)
	total := float64(man.TotalSamples())

	warm, err := e.scorePass(manPath, 0)
	if err != nil {
		return err
	}
	all := []pass{warm}
	var untracedMS, tracedMS float64
	for _, traced := range e.phases() {
		u0, err := readUsage()
		if err != nil {
			return err
		}
		e.tr.setOn(traced)
		var ps []pass
		t0 := time.Now()
		for len(ps) == 0 || time.Since(t0) < e.phaseDur() {
			start := time.Since(t0)
			p, err := e.scorePass(manPath, uint32(len(all)))
			if err != nil {
				return err
			}
			p.start = start
			ps = append(ps, p)
			all = append(all, p)
		}
		elapsed := time.Since(t0)
		e.tr.setOn(false)
		u1, err := readUsage()
		if err != nil {
			return err
		}
		starts := make([]time.Duration, len(ps))
		var walls, firsts []float64
		for i, p := range ps {
			starts[i] = p.start
			walls = append(walls, ms(p.wall))
			firsts = append(firsts, ms(p.firstChunk))
		}
		p50 := windowBest(starts, walls, elapsed, pct(50))
		if traced {
			tracedMS = p50
			e.set("trace.overhead", "ratio", tracedMS/untracedMS)
			e.set("score.first_chunk_ms", "ms", median(firsts))
			continue
		}
		untracedMS = p50
		// A request here is a whole pass, so capacity and throughput
		// follow from the p50 pass time.
		e.set("setup_s", "s", median(firsts)/1e3)
		e.set("latency_p50_ms", "ms", p50)
		e.set("latency_p99_ms", "ms", windowBest(starts, walls, elapsed, pct(99)))
		e.set("capacity_rps", "req/s", 1e3/p50)
		e.set("samples_per_s", "samples/s", total/(p50/1e3))
		e.set("score.passes", "count", float64(len(ps)))
		e.setRuntime(u0, u1, int(total)*len(ps))
	}
	agg := warm.res.Agg
	e.set("compress.ratio", "ratio", float64(agg.RawBytes)/float64(agg.StoredBytes))
	if sim := max(agg.SimRead+agg.SimDecode, agg.SimExec); sim > 0 {
		e.set("score.sim_samples_per_s", "samples/s", total/sim.Seconds())
	}
	st, err := e.checkScore(man, dir, field, all)
	if err != nil || !e.opts.Trace {
		return err
	}
	// The serial replay's stage times against the traced passes: how
	// much of the pipeline's worker time the stages account for.
	e.tr.link()
	sum := st.read + st.decode + st.forward
	e.set("score.read_ms", "ms", ms(st.read))
	e.set("score.decode_ms", "ms", ms(st.decode))
	e.set("score.forward_ms", "ms", ms(st.forward))
	e.set("score.decode_share", "ratio", float64(st.decode)/float64(sum))
	e.set("score.forward_share", "ratio", float64(st.forward)/float64(sum))
	coverage := ms(sum) / (scoreWorkers * tracedMS)
	e.set("score.stage_coverage", "ratio", coverage)
	e.set("path.wait_share", "ratio", 1-coverage)
	return nil
}

// checkScore verifies the passes: every pass must be bit-identical to
// the first, whose chunks must be bit-identical to a serial replay, and
// checked chunks must stay within their certified bound of the FP32
// network on the original field. It returns the replay's stage times.
func (e *env) checkScore(man *score.Manifest, dir string, field []float64, passes []pass) (stageTimes, error) {
	want := passes[0].res.Chunks
	st, got, err := replay(e.h2, man, dir)
	if err != nil {
		return st, err
	}
	mismatch := matchReplay(want, got)
	use, unsound := e.checkChunkBounds(man, dir, field, want)
	if unsound != nil && !errors.Is(unsound, errUnsound) {
		return st, unsound
	}
	e.boundUse = math.Max(e.boundUse, use)
	var wrong, violations int64
	var details []string
	for _, err := range []error{mismatch, unsound} {
		if err != nil {
			details = append(details, err.Error())
		}
	}
	for _, p := range passes {
		switch {
		case unsound != nil:
			violations++
		case mismatch != nil || p.digest != passes[0].digest:
			wrong++
		}
	}
	if wrong > 0 && mismatch == nil {
		details = append(details, "a pass differs from the first pass")
	}
	e.attempted += int64(len(passes))
	e.countFailures(0, wrong, violations, details)
	return st, nil
}

// stageTimes are the serial replay's time per pipeline stage.
type stageTimes struct {
	read, decode, forward time.Duration
}

// reduction is one chunk's per-output sum, min and max.
type reduction struct {
	sum, lo, hi []float64
}

// replay scores the dataset serially, stage by stage, the way the
// pipeline does: read, verify and decode each chunk, run it forward in
// batches of 256 through an engine bound from the artifact, and reduce
// the outputs in sample order.
func replay(m *model, man *score.Manifest, dir string) (stageTimes, []reduction, error) {
	var st stageTimes
	var x *tensor.Matrix
	eng := m.quant
	out := make([]reduction, len(man.Chunks))
	for i, c := range man.Chunks {
		t0 := time.Now()
		raw, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			return st, nil, err
		}
		t1 := time.Now()
		data, err := score.DecodeChunk(man, c, raw)
		if err != nil {
			return st, nil, err
		}
		t2 := time.Now()
		r := reduction{make([]float64, eng.OutputDim()), make([]float64, eng.OutputDim()), make([]float64, eng.OutputDim())}
		for f := range r.sum {
			r.lo[f], r.hi[f] = math.Inf(1), math.Inf(-1)
		}
		for start := 0; start < c.Samples; start += refBatch {
			end := min(start+refBatch, c.Samples)
			w := end - start
			x = tensor.EnsureMatrix(x, man.Features, w)
			for f := 0; f < man.Features; f++ {
				copy(x.Data[f*w:(f+1)*w], data[f*c.Samples+start:f*c.Samples+end])
			}
			y := eng.Forward(x)
			for f := 0; f < y.Rows; f++ {
				for _, v := range y.Data[f*w : (f+1)*w] {
					r.sum[f] += v
					if v < r.lo[f] {
						r.lo[f] = v
					}
					if v > r.hi[f] {
						r.hi[f] = v
					}
				}
			}
		}
		st.read += t1.Sub(t0)
		st.decode += t2.Sub(t1)
		st.forward += time.Since(t2)
		out[i] = r
	}
	return st, out, nil
}

// matchReplay compares a pass's committed chunks with the replay bit for
// bit.
func matchReplay(want []score.ChunkResult, got []reduction) error {
	if len(want) != len(got) {
		return fmt.Errorf("pass committed %d chunks, the dataset has %d", len(want), len(got))
	}
	for i, r := range got {
		w := want[i]
		if !bitEqual(w.Sum, r.sum) || !bitEqual(w.Min, r.lo) || !bitEqual(w.Max, r.hi) {
			return fmt.Errorf("chunk %d: pass result differs from the serial replay", i)
		}
	}
	return nil
}

// checkChunkBounds checks every sample of a few seeded chunks: the
// served model on the decoded chunk must stay within the chunk's
// certified bound of the FP32 network on the original field. It returns
// the largest measured/bound ratio, and an error wrapping errUnsound
// for the first violation.
func (e *env) checkChunkBounds(man *score.Manifest, dir string, field []float64, want []score.ChunkResult) (float64, error) {
	if len(want) != len(man.Chunks) {
		return 0, fmt.Errorf("pass committed %d chunks, the dataset has %d", len(want), len(man.Chunks))
	}
	n := int(man.TotalSamples())
	starts := make([]int, len(man.Chunks))
	for i := 1; i < len(starts); i++ {
		starts[i] = starts[i-1] + man.Chunks[i-1].Samples
	}
	var use float64
	for _, i := range detrand.New(uint64(e.opts.Seed)).Perm(len(man.Chunks))[:min(checkedChunks, len(man.Chunks))] {
		c := man.Chunks[i]
		raw, err := os.ReadFile(filepath.Join(dir, c.File))
		if err != nil {
			return use, err
		}
		data, err := score.DecodeChunk(man, c, raw)
		if err != nil {
			return use, err
		}
		decoded := make([][]float64, c.Samples)
		orig := make([][]float64, c.Samples)
		for j := range decoded {
			decoded[j] = make([]float64, man.Features)
			orig[j] = make([]float64, man.Features)
			for f := 0; f < man.Features; f++ {
				decoded[j][f] = data[f*c.Samples+j]
				orig[j][f] = field[f*n+starts[i]+j]
			}
		}
		served, exact := forward(e.h2.quant, decoded), forward(e.h2.fp32, orig)
		bound := want[i].Bound
		for j := range served {
			dist := l2dist(served[j], exact[j])
			if !(dist <= bound) {
				return use, fmt.Errorf("%w: chunk %d sample %d: |dy|_2 = %g exceeds certified bound %g", errUnsound, i, j, dist, bound)
			}
			use = math.Max(use, dist/bound)
		}
	}
	return use, nil
}
