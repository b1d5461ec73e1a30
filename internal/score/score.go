package score

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/gpusim"
	"github.com/scidata/errprop/internal/hpcio"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// Config tunes a scoring run. Only the artifact, QoIBudget and the
// manifest affect the *numbers*; Workers, Batch-induced engine sizing,
// storage and cursor knobs affect speed, billing and durability, never a
// result bit (Batch is semantic only in that it fixes the forward batching,
// which the engine makes bit-identical at any partitioning — it is still
// kept fixed across resumed runs for exactness by construction, not by
// luck).
type Config struct {
	// QoIBudget, when positive, is the per-sample QoI L-infinity budget:
	// chunks whose certified bound exceeds it are flagged (and counted),
	// never silently accepted.
	QoIBudget float64
	// Workers sets the pipeline's concurrency (default GOMAXPROCS).
	// Results are bit-identical for any value.
	Workers int
	// Batch is the forward-pass batch size (default 256).
	Batch int
	// Dir is the chunk directory (default: the manifest's directory as
	// passed to ScoreArtifactFile, or "." for ScoreArtifact on an
	// in-memory manifest).
	Dir string
	// Storage and Decode bill the simulated I/O path (defaults: the
	// paper's 2.8 GB/s Lustre and the calibrated decode model). When
	// Storage carries a TransientFaults profile, its stream seeds a
	// *per-chunk* stream (mixed with the chunk index) so billing stays
	// independent of worker schedule.
	Storage *hpcio.Storage
	Decode  hpcio.DecodeModel
	// Device bills the simulated execution phase (default RTX 3080 Ti).
	Device *gpusim.Device
	// SkipCorrupt makes a detected-bad chunk a reported skip instead of
	// a fatal error. Either way the failure is detected — never folded
	// into the aggregate as wrong numbers.
	SkipCorrupt bool
	// CursorDir enables chunk-granular crash-safe progress when set: the
	// run checkpoints a cursor every CheckpointEvery commits (default 16)
	// and resumes from the newest intact cursor on restart, keeping
	// KeepCursors files (default 3).
	CursorDir       string
	CheckpointEvery int
	KeepCursors     int
	// Results, when set, durably streams per-chunk JSON lines in commit
	// order; with CursorDir it forms the crash-safe write-ahead pair
	// (resume truncates it to the cursor's offset).
	Results *ResultLog
	// OnChunk, when set, observes every committed result in chunk-index
	// order; returning an error aborts the run after that commit.
	OnChunk func(*ChunkResult) error
	// DiscardChunkResults keeps Result.Chunks empty so a dataset-scale
	// run's memory stays bounded by the commit window, not the manifest
	// length — streaming consumers get every result through Results
	// and/or OnChunk instead.
	DiscardChunkResults bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.Storage == nil {
		c.Storage = hpcio.DefaultStorage()
	}
	if c.Decode == nil {
		c.Decode = hpcio.DefaultDecodeModel()
	}
	if c.Device == nil {
		c.Device = gpusim.RTX3080Ti
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	if c.KeepCursors <= 0 {
		c.KeepCursors = 3
	}
}

// Result reports one scoring run.
type Result struct {
	// Agg is the deterministic aggregate over all committed chunks
	// (including chunks committed by the run this one resumed).
	Agg *Aggregate
	// Chunks holds the results this run committed, in chunk-index order
	// starting at ResumedFrom (resumed-over chunks are not re-emitted —
	// their lines already sit in the result log).
	Chunks []ChunkResult
	// Resumed reports whether an intact cursor was loaded; ResumedFrom
	// is the chunk index scoring continued at (0 on a fresh run).
	Resumed     bool
	ResumedFrom int64
	// QuantBound is the model's certified weight-quantization QoI bound.
	QuantBound float64
	// InputTolL2 is the admissible per-sample L2 input perturbation for
	// the configured budget, from Analysis.InputToleranceFor over the
	// budget left after quantization (+Inf when no budget is set).
	InputTolL2 float64
}

// ScoreArtifact runs the streaming scoring pipeline for a compiled model
// (internal/artifact; a spec model is built in memory by artifact.Build
// first) over the manifest's chunks. The artifact's program binds to its
// already-quantized weights, and its error-flow graph with the
// build-time step tables supplies the certified accounting at the
// artifact's format. The returned aggregate and per-chunk results
// are bit-identical for any Workers value, and — with CursorDir set —
// across any kill/resume split.
//
//errprop:deterministic results are a pure function of (artifact, manifest, chunk bytes, semantic config)
func ScoreArtifact(art *artifact.Artifact, man *Manifest, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if man == nil || len(man.Chunks) == 0 {
		return nil, fmt.Errorf("score: empty manifest")
	}
	if art.Net.InputDim != man.Features {
		return nil, fmt.Errorf("score: network input dim %d != manifest features %d", art.Net.InputDim, man.Features)
	}
	steps, err := art.StepsFor(art.Format)
	if err != nil {
		return nil, fmt.Errorf("score: %w", err)
	}
	engines := make([]*nn.Engine, cfg.Workers)
	for i := range engines {
		if engines[i], err = art.Program.Bind(art.Net, cfg.Batch, 1); err != nil {
			return nil, fmt.Errorf("score: binding artifact program: %w", err)
		}
	}
	acct := newAccountant(core.Analyze(art.Root, steps), man.Features, cfg.QoIBudget)
	r := &runner{cfg: cfg, man: man, acct: acct, art: art, engines: engines}
	r.manChecksum, err = manifestChecksum(man)
	if err != nil {
		return nil, err
	}

	res := &Result{QuantBound: acct.quantBound, InputTolL2: acct.inputTolL2}
	start := int64(0)
	agg := newAggregate(engines[0].OutputDim())
	if cfg.CursorDir != "" {
		cur, _, err := LoadLatestCursor(cfg.CursorDir)
		switch {
		case err == nil:
			if cur.ManifestChecksum != r.manChecksum {
				return nil, fmt.Errorf("score: cursor in %s was written for a different manifest (checksum %08x != %08x)",
					cfg.CursorDir, cur.ManifestChecksum, r.manChecksum)
			}
			if cur.Committed > int64(len(man.Chunks)) {
				return nil, fmt.Errorf("score: %w: cursor committed %d beyond manifest's %d chunks",
					ErrCorrupt, cur.Committed, len(man.Chunks))
			}
			if len(cur.Agg.Sum) != engines[0].OutputDim() {
				return nil, fmt.Errorf("score: %w: cursor aggregate width %d != model output dim %d",
					ErrCorrupt, len(cur.Agg.Sum), engines[0].OutputDim())
			}
			start, agg = cur.Committed, cur.Agg
			res.Resumed, res.ResumedFrom = true, start
			if cfg.Results != nil {
				if err := cfg.Results.Truncate(cur.ResultBytes); err != nil {
					return nil, fmt.Errorf("score: rewinding result log to cursor: %w", err)
				}
			}
		case errors.Is(err, os.ErrNotExist):
			// Fresh start; discard any result lines a cursorless crashed
			// run left behind.
			if cfg.Results != nil {
				if err := cfg.Results.Truncate(0); err != nil {
					return nil, fmt.Errorf("score: rewinding result log: %w", err)
				}
			}
		default:
			return nil, err
		}
	}

	if err := r.run(start, agg, res); err != nil {
		return nil, err
	}
	res.Agg = agg
	return res, nil
}

// ScoreArtifactFile is ScoreArtifact over an on-disk dataset: it reads
// the manifest at manifestPath and scores its chunks from the same
// directory (unless cfg.Dir overrides it).
func ScoreArtifactFile(art *artifact.Artifact, manifestPath string, cfg Config) (*Result, error) {
	man, err := ReadManifestFile(manifestPath)
	if err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		cfg.Dir = filepath.Dir(manifestPath)
	}
	return ScoreArtifact(art, man, cfg)
}

// manifestChecksum binds cursors to the manifest they measure progress
// against.
func manifestChecksum(m *Manifest) (uint32, error) {
	raw, err := m.Encode()
	if err != nil {
		return 0, err
	}
	return integrity.Checksum(raw), nil
}

// accountant precomputes the certified-error accounting shared by every
// chunk: the quantization bound, the quantized-Lipschitz amplification,
// and the admissible input tolerance for the configured budget.
type accountant struct {
	quantBound float64
	lipQ       float64
	sqrtN0     float64
	budget     float64
	inputTolL2 float64
}

func newAccountant(an *core.Analysis, features int, budget float64) *accountant {
	a := &accountant{
		quantBound: an.QuantizationBound(),
		lipQ:       an.LipschitzQuantized(),
		sqrtN0:     math.Sqrt(float64(features)),
		budget:     budget,
		inputTolL2: math.Inf(1),
	}
	if budget > 0 {
		left := budget - a.quantBound
		if left < 0 {
			left = 0
		}
		a.inputTolL2 = an.InputToleranceFor(left, true)
	}
	return a
}

// bound turns one chunk's achieved pointwise codec error into its
// certified per-sample QoI bound: the error becomes a per-sample L2
// input perturbation (||dx||_2 <= sqrt(n0) einf), which Inequality (3)
// with quantized-weight amplification joins to the quantization bound.
//
//errprop:bound-source the returned bound is a certified QoI error bound
func (a *accountant) bound(achievedLinf float64) (inputL2, bound float64) {
	inputL2 = a.sqrtN0 * achievedLinf
	return inputL2, a.quantBound + a.lipQ*inputL2
}

// account fills one chunk's certified-error fields from its manifest
// entry. Budget admission checks the same inverted bound as
// InputToleranceFor, so WithinBudget holds exactly when InputL2 fits
// inside the admissible tolerance.
func (a *accountant) account(c Chunk, cr *ChunkResult) {
	cr.AchievedLinf = c.AchievedLinf
	cr.QuantBound = a.quantBound
	cr.InputL2, cr.Bound = a.bound(c.AchievedLinf)
	cr.WithinBudget = a.budget <= 0 || cr.Bound <= a.budget
}

// chunkOutcome carries one scored chunk from a worker to the committer.
type chunkOutcome struct {
	idx int64
	res ChunkResult
	err error
}

type runner struct {
	cfg         Config
	man         *Manifest
	acct        *accountant
	art         *artifact.Artifact
	engines     []*nn.Engine
	manChecksum uint32
}

// run drives the staged pipeline from chunk index start: workers claim
// chunk indices through a window semaphore (bounding both memory and how
// far computation may run ahead of the commit frontier), score them
// independently, and a single committer folds results in strict
// chunk-index order — the fixed reduction that makes worker count
// irrelevant to the output.
func (r *runner) run(start int64, agg *Aggregate, res *Result) error {
	n := int64(len(r.man.Chunks))
	workers := r.cfg.Workers
	if max := n - start; max > 0 && int64(workers) > max {
		workers = int(max)
	}
	if start >= n {
		// Nothing left to score (the previous run committed everything
		// before being killed); still refresh the final cursor.
		return r.finalize(start, agg)
	}

	window := 2 * workers
	if window < 4 {
		window = 4
	}
	// sem tokens bound claimed-but-uncommitted chunks; done's capacity
	// matches, so a worker's send never blocks and abort can't strand a
	// result.
	sem := make(chan struct{}, window)
	done := make(chan chunkOutcome, window)
	abort := make(chan struct{})
	var next atomic.Int64
	next.Store(start)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			for {
				select {
				case <-abort:
					return
				case sem <- struct{}{}:
				}
				i := next.Add(1) - 1
				if i >= n {
					<-sem // hand the token back: nothing was claimed
					return
				}
				out := chunkOutcome{idx: i}
				out.res, out.err = r.scoreChunk(ws, i)
				select {
				case done <- out:
				case <-abort:
					return
				}
			}
		}(newWorkerState(r.engines[w], r.man.Features, r.cfg.Batch))
	}
	defer func() {
		close(abort)
		wg.Wait()
	}()

	// Committer: fold strictly in chunk-index order.
	pending := make(map[int64]chunkOutcome, window)
	committed := start
	sinceCkpt := 0
	for committed < n {
		out := <-done
		pending[out.idx] = out
		for {
			o, ok := pending[committed]
			if !ok {
				break
			}
			delete(pending, committed)
			if o.err != nil {
				return fmt.Errorf("score: chunk %d (%s): %w", o.idx, r.man.Chunks[o.idx].File, o.err)
			}
			agg.fold(&o.res)
			if !r.cfg.DiscardChunkResults {
				res.Chunks = append(res.Chunks, o.res)
			}
			if r.cfg.Results != nil {
				if err := r.cfg.Results.Append(&o.res); err != nil {
					return fmt.Errorf("score: appending result for chunk %d: %w", o.idx, err)
				}
			}
			if r.cfg.OnChunk != nil {
				if err := r.cfg.OnChunk(&o.res); err != nil {
					return fmt.Errorf("score: chunk callback at %d: %w", o.idx, err)
				}
			}
			committed++
			sinceCkpt++
			<-sem
			if r.cfg.CursorDir != "" && sinceCkpt >= r.cfg.CheckpointEvery && committed < n {
				if err := r.checkpoint(committed, agg); err != nil {
					return err
				}
				sinceCkpt = 0
			}
		}
	}
	return r.finalize(committed, agg)
}

// checkpoint durably records progress: the result log is synced first,
// then the cursor naming its offset is atomically written — the
// write-ahead order that lets resume truncate instead of guess.
func (r *runner) checkpoint(committed int64, agg *Aggregate) error {
	cur := &Cursor{ManifestChecksum: r.manChecksum, Committed: committed, Agg: agg}
	if r.cfg.Results != nil {
		if err := r.cfg.Results.Sync(); err != nil {
			return fmt.Errorf("score: syncing result log: %w", err)
		}
		cur.ResultBytes = r.cfg.Results.Offset()
	}
	if _, err := SaveCursor(r.cfg.CursorDir, cur); err != nil {
		return fmt.Errorf("score: saving cursor: %w", err)
	}
	return PruneCursors(r.cfg.CursorDir, r.cfg.KeepCursors)
}

// finalize makes the run durable: the final cursor when a cursor
// directory is set (checkpoint syncs the result log first), else just
// the result log.
func (r *runner) finalize(committed int64, agg *Aggregate) error {
	if r.cfg.CursorDir != "" {
		return r.checkpoint(committed, agg)
	}
	if r.cfg.Results != nil {
		if err := r.cfg.Results.Sync(); err != nil {
			return fmt.Errorf("score: syncing result log: %w", err)
		}
	}
	return nil
}

// workerState is one worker's reusable compute state: a private compiled
// engine and a packing buffer, so the steady-state forward stage
// allocates nothing per batch.
type workerState struct {
	eng *nn.Engine
	in  *tensor.Matrix
}

func newWorkerState(eng *nn.Engine, features, batch int) *workerState {
	return &workerState{eng: eng, in: tensor.NewMatrix(features, batch)}
}

// scoreChunk runs the full per-chunk pipeline: read + verify, simulated
// I/O billing, real decode, engine forward over fixed batches, QoI
// reduction in fixed sample order, and the certified accounting. It
// touches no shared mutable state — determinism needs no locks.
func (r *runner) scoreChunk(ws *workerState, idx int64) (ChunkResult, error) {
	c := r.man.Chunks[idx]
	cr := ChunkResult{Index: idx, File: c.File}
	r.acct.account(c, &cr)

	fail := func(stage string, err error) (ChunkResult, error) {
		if r.cfg.SkipCorrupt {
			cr.Skipped = true
			cr.Detail = fmt.Sprintf("%s: %v", stage, err)
			cr.Samples = 0
			cr.Sum, cr.Min, cr.Max = nil, nil, nil
			return cr, nil
		}
		return cr, fmt.Errorf("%s: %w", stage, err)
	}

	raw, err := os.ReadFile(filepath.Join(r.cfg.Dir, c.File))
	if err != nil {
		return fail("read", err)
	}

	// Bill the simulated storage read. With a fault profile attached the
	// draws come from a per-chunk stream (profile seed mixed with the
	// chunk index), so billing is independent of which worker ran when.
	st := r.chunkStorage(idx)
	readTime, retries, err := st.ReadTimeRetries(int64(len(raw)))
	cr.SimRead = readTime
	cr.Retries = retries
	if err != nil {
		return fail("storage", err)
	}

	data, err := DecodeChunk(r.man, c, raw)
	if err != nil {
		return fail("decode", err)
	}
	cr.StoredBytes = int64(len(raw))
	cr.RawBytes = int64(len(data) * 8)
	decodeTime, err := r.cfg.Decode.DecodeTime(r.man.Codec, cr.StoredBytes, cr.RawBytes)
	if err != nil {
		return cr, fmt.Errorf("decode billing: %w", err)
	}
	cr.SimDecode = decodeTime

	// Forward + QoI reduction over fixed batches in sample order.
	outDim := ws.eng.OutputDim()
	cr.Samples = c.Samples
	cr.Sum = make([]float64, outDim)
	cr.Min = make([]float64, outDim)
	cr.Max = make([]float64, outDim)
	forwardChunk(ws, data, r.man.Features, c.Samples, r.cfg.Batch, cr.Sum, cr.Min, cr.Max)
	cr.SimExec = r.execBilling(c.Samples)
	return cr, nil
}

// chunkStorage returns the storage to bill chunk idx with: the shared
// reliable storage as-is, or a per-chunk shallow copy whose fault stream
// is seeded from the profile's stream seed mixed with the chunk index.
func (r *runner) chunkStorage(idx int64) *hpcio.Storage {
	st := r.cfg.Storage
	if st.Faults == nil || st.Faults.Stream == nil {
		return st
	}
	seed, _ := st.Faults.Stream.State()
	mixed := (seed ^ uint64(idx+1)) * 0x9e3779b97f4a7c15
	cp := *st
	faults := *st.Faults
	faults.Stream = detrand.New(mixed)
	cp.Faults = &faults
	return &cp
}

// execBilling prices the chunk's forward passes on the simulated device:
// full batches at Batch samples plus one remainder batch.
func (r *runner) execBilling(samples int) time.Duration {
	full := samples / r.cfg.Batch
	rem := samples % r.cfg.Batch
	var total time.Duration
	if full > 0 {
		dt, _ := gpusim.ExecCost(r.art.Net, r.cfg.Device, r.art.Format, r.cfg.Batch)
		total += time.Duration(full) * dt
	}
	if rem > 0 {
		dt, _ := gpusim.ExecCost(r.art.Net, r.cfg.Device, r.art.Format, rem)
		total += dt
	}
	return total
}

// forwardChunk streams a decoded feature-major chunk (features x samples)
// through the worker's engine in batches of batch columns, reducing
// per-output sums and min/max in fixed sample order into the provided
// slices. Steady state it allocates nothing: the packing buffer and the
// engine arena are reused across batches and chunks.
func forwardChunk(ws *workerState, data []float64, features, samples, batch int, sum, min, max []float64) {
	for f := range sum {
		sum[f] = 0
		min[f] = math.Inf(1)
		max[f] = math.Inf(-1)
	}
	for lo := 0; lo < samples; lo += batch {
		hi := lo + batch
		if hi > samples {
			hi = samples
		}
		cols := hi - lo
		ws.in = tensor.EnsureMatrix(ws.in, features, cols)
		for f := 0; f < features; f++ {
			copy(ws.in.Data[f*cols:(f+1)*cols], data[f*samples+lo:f*samples+hi])
		}
		out := ws.eng.Forward(ws.in)
		for f := 0; f < out.Rows; f++ {
			row := out.Data[f*cols : (f+1)*cols]
			for _, v := range row {
				sum[f] += v
				if v < min[f] {
					min[f] = v
				}
				if v > max[f] {
					max[f] = v
				}
			}
		}
	}
}
