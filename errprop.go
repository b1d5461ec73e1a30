// Package errprop is the public facade of the error-propagation
// framework from "Understanding and Estimating Error Propagation in
// Neural Networks for Scientific Data Analysis" (ICDE 2025): build or
// load a network, analyze how compression and quantization errors flow
// through it, plan a reduction configuration for a QoI tolerance, and run
// the resulting error-bounded inference pipeline.
//
// A minimal session:
//
//	spec := errprop.MLPSpec("demo", []int{9, 50, 50, 9}, errprop.ActTanh, true)
//	net, _ := spec.Build(1)
//	// ... train net (see examples/quickstart) ...
//	an, _ := errprop.Analyze(net, errprop.FP16)
//	fmt.Println(an.BoundLinf(1e-5)) // predicted QoI error bound
//
//	plan, _ := errprop.Plan(net, errprop.PlanRequest{
//	    Tol: 1e-3, Norm: errprop.NormLinf, QuantFraction: 0.5})
//	pipe, _ := errprop.NewPipeline(net, plan, "sz", errprop.NormLinf)
//
// The heavy lifting lives in the internal packages; this package
// re-exports the types a downstream user needs so the import surface
// stays a single path.
package errprop

import (
	"io"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/autotune"
	"github.com/scidata/errprop/internal/checkpoint"
	"github.com/scidata/errprop/internal/compress"
	_ "github.com/scidata/errprop/internal/compress/mgard" // register codecs
	_ "github.com/scidata/errprop/internal/compress/sz"
	_ "github.com/scidata/errprop/internal/compress/zfp"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/gpusim"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/pipeline"
	"github.com/scidata/errprop/internal/quant"
	"github.com/scidata/errprop/internal/score"
	"github.com/scidata/errprop/internal/serve"
	"github.com/scidata/errprop/internal/tensor"
)

// Network is a neural network (see internal/nn for the full API surface
// on the type itself: Forward, Save, Params, ...).
type Network = nn.Network

// Spec describes a network architecture and builds Networks. Use
// Spec.Validate to statically check layer-geometry chaining (with
// position-annotated errors) before paying for Build; Build and
// LoadNetwork run the same validation themselves.
type Spec = nn.Spec

// LayerSpec is one layer of a Spec.
type LayerSpec = nn.LayerSpec

// Activation kind names accepted by MLPSpec / LayerSpec.
const (
	ActIdentity = nn.ActIdentity
	ActTanh     = nn.ActTanh
	ActReLU     = nn.ActReLU
	ActLeaky    = nn.ActLeaky
	ActPReLU    = nn.ActPReLU
	ActGELU     = nn.ActGELU
	ActSigmoid  = nn.ActSigmoid
)

// MLPSpec builds a multilayer-perceptron architecture; psn enables the
// paper's parameterized spectral normalization on every dense layer.
func MLPSpec(name string, dims []int, act string, psn bool) *Spec {
	return nn.MLPSpec(name, dims, act, psn)
}

// ResNetSpec builds a ResNet-style architecture of basic residual blocks.
func ResNetSpec(name string, inC, h, w, numClasses int, blocks, channels []int, act string, psn bool) *Spec {
	return nn.ResNetSpec(name, inC, h, w, numClasses, blocks, channels, act, psn)
}

// UNetSpec builds a U-Net-style encoder/decoder architecture with skip
// concatenations.
func UNetSpec(name string, inC, h, w, outC, base int, act string, psn bool) *Spec {
	return nn.UNetSpec(name, inC, h, w, outC, base, act, psn)
}

// LoadNetwork reads a network serialized with Network.Save.
func LoadNetwork(r io.Reader) (*Network, error) { return nn.Load(r) }

// Typed integrity errors: every checksummed decoder in the framework
// (compressed containers, model files, training checkpoints) reports
// damaged bytes as an error chaining to one of these, so callers can
// tell bad data from bad requests with errors.Is.
var (
	// ErrCorrupt marks bytes that fail a checksum or structural check.
	ErrCorrupt = integrity.ErrCorrupt
	// ErrTruncated marks input that ends before its framing says it should.
	ErrTruncated = integrity.ErrTruncated
)

// IsIntegrityError reports whether err chains to ErrCorrupt or
// ErrTruncated.
func IsIntegrityError(err error) bool { return integrity.IsIntegrityError(err) }

// TrainerState is a Trainer's complete resumable state (parameters,
// optimizer moments, PSN spectral state, step counter); capture with
// Trainer.CaptureState, restore with Trainer.RestoreState.
type TrainerState = nn.TrainerState

// CheckpointState is one training checkpoint: a TrainerState plus the
// data-order RNG position.
type CheckpointState = checkpoint.State

// CheckpointLoop wires periodic crash-safe checkpointing into a training
// loop (see internal/checkpoint.Loop).
type CheckpointLoop = checkpoint.Loop

// SaveCheckpoint atomically writes a checkpoint into dir (temp file +
// fsync + rename + directory fsync: a crash mid-write never leaves a
// half checkpoint that a later resume could read).
func SaveCheckpoint(dir string, st *CheckpointState) (string, error) {
	return checkpoint.Save(dir, st)
}

// LoadLatestCheckpoint restores the newest intact checkpoint in dir,
// skipping damaged files; it returns the state, the file it came from,
// and an error wrapping os.ErrNotExist when no usable checkpoint exists.
func LoadLatestCheckpoint(dir string) (*CheckpointState, string, error) {
	return checkpoint.LoadLatest(dir)
}

// Matrix is the column-major-batch matrix type networks consume:
// features x batch, one sample per column.
type Matrix = tensor.Matrix

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// NewMatrixFrom wraps an existing row-major backing slice (shared, not
// copied) as a rows x cols matrix.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	return tensor.NewMatrixFrom(rows, cols, data)
}

// Optimizer updates network parameters from accumulated gradients.
type Optimizer = nn.Optimizer

// NewSGD returns stochastic gradient descent with optional momentum and
// decoupled weight decay.
func NewSGD(lr, momentum, weightDecay float64) Optimizer { return nn.NewSGD(lr, momentum, weightDecay) }

// NewAdam returns the Adam optimizer with conventional defaults.
func NewAdam(lr float64) Optimizer { return nn.NewAdam(lr) }

// Trainer is the deterministic data-parallel training engine: minibatch
// shards fan out over a pool of Network.Clone replicas and gradients
// reduce in a fixed tree order, so the weight trajectory is bit-identical
// for any Workers setting (see internal/nn.Trainer).
type Trainer = nn.Trainer

// TrainConfig tunes a Trainer. Workers (default GOMAXPROCS) only affects
// speed, never results; ShardSize (default 32) fixes the gradient
// reduction tree.
type TrainConfig = nn.TrainConfig

// LossFn is a shard loss: given network outputs for batch columns
// [lo, hi) of a total-column batch, return the shard's loss contribution
// and dL/d(out) (see MSEShard / CrossEntropyShard).
type LossFn = nn.LossFn

// NewTrainer builds a data-parallel trainer updating net with opt. The
// network must carry its Spec and contain no BatchNorm layers.
func NewTrainer(net *Network, opt Optimizer, cfg TrainConfig) (*Trainer, error) {
	return nn.NewTrainer(net, opt, cfg)
}

// MSEShard adapts a full-batch regression target into a Trainer LossFn.
func MSEShard(y *Matrix) LossFn { return nn.MSEShard(y) }

// CrossEntropyShard adapts a full-batch label slice into a Trainer
// LossFn.
func CrossEntropyShard(labels []int) LossFn { return nn.CrossEntropyShard(labels) }

// Format is a weight quantization format.
type Format = numfmt.Format

// Quantization formats (Table I).
const (
	FP32 = numfmt.FP32
	TF32 = numfmt.TF32
	FP16 = numfmt.FP16
	BF16 = numfmt.BF16
	INT8 = numfmt.INT8
)

// Formats lists the quantization targets the paper evaluates.
var Formats = numfmt.Formats

// ParseFormat resolves a format's canonical name (fp32, tf32, fp16, bf16,
// int8, fp8e4m3, fp8e5m2); an unknown name is an error naming it.
func ParseFormat(s string) (Format, error) { return numfmt.ParseFormat(s) }

// StepSize returns the Table I average quantization step size q(W).
func StepSize(f Format, weights []float64) float64 { return numfmt.StepSize(f, weights) }

// Quantize returns an inference copy of net with weights rounded to f.
func Quantize(net *Network, f Format) (*Network, error) { return quant.Quantize(net, f) }

// Analysis exposes the paper's error bounds for a network.
type Analysis = core.Analysis

// Analyze builds the error-flow analysis of net under weight format f
// (FP32 for compression-only analysis).
func Analyze(net *Network, f Format) (*Analysis, error) { return core.AnalyzeNetwork(net, f) }

// Norm selects the norm a tolerance is stated in.
type Norm = core.Norm

// Tolerance norms.
const (
	NormL2   = core.NormL2
	NormLinf = core.NormLinf
)

// PlanRequest asks the planner for a reduction configuration.
type PlanRequest = core.PlanRequest

// PlanResult is the planner's decision.
type PlanResult = core.Plan

// Plan splits a QoI tolerance between quantization and compression
// (Fig. 1): it picks the fastest admissible format and hands the unused
// tolerance to the compressor.
func Plan(net *Network, req PlanRequest) (*PlanResult, error) { return core.PlanNetwork(net, req) }

// Mode is a compression error mode.
type Mode = compress.Mode

// Compression error modes.
const (
	AbsLinf = compress.AbsLinf
	RelLinf = compress.RelLinf
	L2      = compress.L2
	RelL2   = compress.RelL2
)

// Codecs lists the registered compressor names ("mgard", "sz", "zfp").
func Codecs() []string { return compress.Names() }

// Compress encodes data (with grid dims, rank 1-3) under an error bound
// using the named codec, returning a self-describing blob.
func Compress(codec string, data []float64, dims []int, mode Mode, tol float64) ([]byte, error) {
	return compress.Encode(codec, data, dims, mode, tol)
}

// Decompress reverses Compress.
func Decompress(blob []byte) ([]float64, error) {
	data, _, err := compress.Decode(blob)
	return data, err
}

// DecompressDims reverses Compress and additionally returns the grid
// dimensions the blob was encoded with, so callers can reshape the flat
// data without carrying the dims out of band.
func DecompressDims(blob []byte) ([]float64, []int, error) {
	data, b, err := compress.Decode(blob)
	if err != nil {
		return nil, nil, err
	}
	return data, b.Dims, nil
}

// Pipeline is an end-to-end error-bounded inference pipeline.
type Pipeline = pipeline.Pipeline

// PipelineConfig configures a Pipeline directly.
type PipelineConfig = pipeline.Config

// PipelineResult reports one pipeline run.
type PipelineResult = pipeline.Result

// NewPipeline builds a pipeline executing a planner decision with the
// given codec.
func NewPipeline(net *Network, plan *PlanResult, codec string, norm Norm) (*Pipeline, error) {
	return pipeline.FromPlan(net, plan, codec, norm, pipeline.Config{})
}

// NewPipelineConfig builds a pipeline from an explicit configuration.
func NewPipelineConfig(net *Network, cfg PipelineConfig) (*Pipeline, error) {
	return pipeline.New(net, cfg)
}

// Device is a simulated accelerator for execution-throughput modeling.
type Device = gpusim.Device

// Simulated devices from the paper's testbed.
var (
	V100      = gpusim.V100
	RTX3080Ti = gpusim.RTX3080Ti
	MI250X    = gpusim.MI250X
)

// ExecThroughput simulates model-execution throughput (bytes of input
// per second) for a network at a batch size and weight format.
func ExecThroughput(net *Network, d *Device, f Format, batch int) float64 {
	return gpusim.Throughput(net, d, f, batch)
}

// Granularity selects the grouping scheme for grouped INT8 quantization
// (the paper's future-work extension).
type Granularity = numfmt.Granularity

// Grouped INT8 granularities.
const (
	PerTensor = numfmt.PerTensor
	PerRow    = numfmt.PerRow
	PerColumn = numfmt.PerColumn
	PerBlock  = numfmt.PerBlock
)

// QuantizeGroupedINT8 quantizes net's weights to INT8 with per-group
// affine scales, tightening both bound and achieved error versus the
// uniform Table I scheme.
func QuantizeGroupedINT8(net *Network, g Granularity, blockSize int) (*Network, error) {
	return quant.QuantizeGroupedINT8(net, g, blockSize)
}

// AnalyzeGroupedINT8 builds the error-flow analysis for grouped INT8
// quantization.
func AnalyzeGroupedINT8(net *Network, g Granularity, blockSize int) (*Analysis, error) {
	return core.AnalyzeNetworkGroupedINT8(net, g, blockSize)
}

// QuantizeActivations additionally rounds activation outputs to actFmt
// (float formats only) on top of weightFmt weights; bound the extra
// error with Analysis.ActivationQuantBound.
func QuantizeActivations(net *Network, weightFmt, actFmt Format) (*Network, error) {
	return quant.QuantizeActivations(net, weightFmt, actFmt)
}

// FoldBatchNorm folds inference-mode batch normalization into preceding
// convolutions so the folded network is exactly analyzable.
func FoldBatchNorm(net *Network) (*Network, error) { return nn.FoldBatchNorm(net) }

// MixedAssignment is a per-layer format assignment (forward order over
// linear layers).
type MixedAssignment = core.Assignment

// MixedPlan is the mixed-precision planner's output.
type MixedPlan = core.MixedPlan

// PlanMixedPrecision greedily assigns per-layer formats: the fastest
// assignment whose predicted quantization bound fits the budget (the
// paper's per-layer-format future work).
func PlanMixedPrecision(net *Network, budget float64) (*MixedPlan, error) {
	return core.PlanMixed(net, budget, nil)
}

// QuantizeMixed quantizes each linear layer to its assigned format.
func QuantizeMixed(net *Network, a MixedAssignment) (*Network, error) {
	return quant.QuantizeMixed(net, a)
}

// EstimateRatio predicts a codec's compression ratio from a sampled
// compression pass (sampleFrac of the slowest dimension).
func EstimateRatio(codec string, data []float64, dims []int, mode Mode, tol, sampleFrac float64) (float64, error) {
	return compress.EstimateRatio(codec, data, dims, mode, tol, sampleFrac)
}

// Engine is a compiled inference plan for a network: shapes inferred
// and buffers preallocated once at compile time, so steady-state
// Engine.Forward allocates nothing and is bit-identical to
// Network.Forward — certified error bounds transfer unchanged.
type Engine = nn.Engine

// CompileInference compiles net into an Engine sized for batches up to
// maxBatch (larger batches still work; the buffer arena grows to the
// high-water mark). The Engine shares net's weights as read-only views,
// so later weight updates are visible without recompiling.
func CompileInference(net *Network, maxBatch int) (*Engine, error) {
	return nn.CompileInference(net, maxBatch)
}

// InferShapes statically infers a Spec's output dimension, validating
// layer-geometry chaining along the way — no network build, no forward
// pass.
func InferShapes(s *Spec) (int, error) { return nn.InferShapes(s) }

// Server is the concurrent batched inference service: named models,
// per-request QoI error budgets, dynamic micro-batching over a worker
// pool of compiled inference engines, bounded-queue backpressure, and a
// /metrics plane (see internal/serve).
type Server = serve.Server

// ServeConfig tunes a Server; the zero value gets production defaults.
type ServeConfig = serve.Config

// ServeMetrics is a point-in-time snapshot of a Server's metrics plane.
type ServeMetrics = serve.Snapshot

// NewServer builds an inference server; register models with
// Server.RegisterArtifact (a spec model goes through BuildArtifact
// first) and mount Server.Handler on any net/http server.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Artifact is an ahead-of-time compiled model bundle: quantized
// weights, one row of build-time numbers (σ, row norms, quantization
// steps) per linear op, and the certified bound — one checksummed file
// that cold-starts anywhere with no re-quantization or re-analysis. The
// op program and the error-flow graph are derived from the shipped
// network (see internal/artifact). Register one with
// Server.RegisterArtifact or score with ScoreArtifact.
type Artifact = artifact.Artifact

// BuildArtifact compiles net into an artifact serving weight format f:
// quantization, program compilation, error-flow analysis, and the
// certified bound all happen once, here, at build time.
func BuildArtifact(net *Network, f Format) (*Artifact, error) { return artifact.Build(net, f) }

// DecodeArtifact parses and fully verifies an artifact's bytes: frame
// checksum, canonical form, and a bit-exact recomputation of the stored
// certified bound. Damage is a typed integrity error
// (IsIntegrityError), never a partially trusted artifact; a version-1
// artifact is refused and must be recompiled with errpropd -compile.
func DecodeArtifact(raw []byte) (*Artifact, error) { return artifact.Decode(raw) }

// WriteArtifactFile writes an artifact atomically (temp, fsync, rename,
// directory fsync).
func WriteArtifactFile(path string, a *Artifact) error { return artifact.WriteFile(path, a) }

// ReadArtifactFile reads and fully verifies an artifact file.
func ReadArtifactFile(path string) (*Artifact, error) { return artifact.ReadFile(path) }

// LoadArtifact is the model-file loader the CLIs share: an artifact file
// is decoded and verified (its baked-in format wins over f); a saved
// network (Network.Save) is compiled at f in memory. built reports which.
func LoadArtifact(path string, f Format) (a *Artifact, built bool, err error) {
	return artifact.Load(path, f)
}

// Gateway routes inference requests across a fleet of errpropd
// backends: consistent-hash routing on (model, request bytes), active
// health probes with a liveness/readiness distinction, bounded retry
// with deterministic backoff jitter, and per-backend circuit breakers.
// A registry that pins a model's artifact lets the gateway answer that
// model's /v1/plan itself, and /v1/models once every served model is
// pinned; every other request goes to a backend. Retries are safe
// because backend responses are bit-identical for the same request
// bytes (see internal/gateway).
type Gateway = gateway.Gateway

// GatewayConfig tunes a Gateway; the zero value gets production
// defaults.
type GatewayConfig = gateway.Config

// GatewayBackend names one routable errpropd process.
type GatewayBackend = gateway.Backend

// GatewayRegistry is a fleet manifest: the checksummed on-disk form is
// written by WriteGatewayRegistry and hot-reloaded by a running
// gateway on SIGHUP.
type GatewayRegistry = gateway.Registry

// GatewayArtifactRef pins one model's compiled artifact in a registry
// manifest by path and checksum: the gateway verifies the file at
// load/reload (a mismatch is a typed refusal that leaves the running
// fleet untouched) and then answers /v1/plan for that model from the
// artifact itself, with zero backend round-trips, and /v1/models too
// once every model the fleet serves is pinned.
type GatewayArtifactRef = gateway.ArtifactRef

// GatewayBackendStatus is one backend's health/traffic slice of the
// gateway's metrics.
type GatewayBackendStatus = gateway.BackendStatus

// GatewayMetrics is a point-in-time snapshot of a Gateway's metrics
// plane (the GET /metrics body).
type GatewayMetrics = gateway.Snapshot

// NewGateway builds a gateway with no backends; install a fleet with
// Gateway.SetBackends or Gateway.LoadRegistryFile and mount
// Gateway.Handler.
func NewGateway(cfg GatewayConfig) *Gateway { return gateway.New(cfg) }

// WriteGatewayRegistry atomically writes a checksummed registry
// manifest (temp file + fsync + rename + directory fsync).
func WriteGatewayRegistry(path string, reg *GatewayRegistry) error {
	return gateway.WriteRegistryFile(path, reg)
}

// ReadGatewayRegistry reads and verifies a registry manifest; corrupt
// or truncated files are refused with a typed integrity error.
func ReadGatewayRegistry(path string) (*GatewayRegistry, error) {
	return gateway.ReadRegistryFile(path)
}

// AutotuneOptions configures the automated allocation search.
type AutotuneOptions = autotune.Options

// AutotuneResult is the search outcome.
type AutotuneResult = autotune.Result

// Autotune searches quantization-allocation fractions for the
// configuration with the highest predicted end-to-end throughput that
// still meets the QoI tolerance — the optimization algorithm the paper
// names as future work.
func Autotune(net *Network, field []float64, dims []int, opt AutotuneOptions) (*AutotuneResult, error) {
	return autotune.Optimize(net, field, dims, opt)
}

// ScoreConfig tunes a bulk scoring run (see internal/score.Config): only
// the artifact and QoIBudget affect the numbers; Workers, batching, simulated
// storage and cursor knobs affect speed, billing and durability, never a
// result bit.
type ScoreConfig = score.Config

// ScoreResult reports one bulk scoring run: the deterministic aggregate,
// per-chunk results with certified error bounds, and resume provenance.
type ScoreResult = score.Result

// ScoreChunkResult is one chunk's scored output: QoI statistics plus the
// certified per-sample error bound from the chunk's achieved codec error
// and the model's quantization bound (Inequality (3)).
type ScoreChunkResult = score.ChunkResult

// ScoreManifest is the ordered, checksummed chunk index of a scored
// dataset.
type ScoreManifest = score.Manifest

// ScoreDatasetConfig tunes WriteScoreDataset.
type ScoreDatasetConfig = score.DatasetConfig

// ScoreResultLog durably streams per-chunk results as JSON lines in
// commit order; paired with a cursor directory it makes scoring runs
// crash-safe and bit-identically resumable.
type ScoreResultLog = score.ResultLog

// WriteScoreDataset compresses a feature-major field (features x samples)
// into a chunked dataset under dir and writes its manifest. Each chunk's
// *achieved* reconstruction error is measured against the original data
// and recorded in the manifest — the certified input to later scoring.
func WriteScoreDataset(dir string, field []float64, features int, cfg ScoreDatasetConfig) (*ScoreManifest, error) {
	return score.WriteDataset(dir, field, features, cfg)
}

// ReadScoreManifest reads and verifies a dataset manifest.
func ReadScoreManifest(path string) (*ScoreManifest, error) {
	return score.ReadManifestFile(path)
}

// OpenScoreResultLog opens (or creates) a durable result log at path.
func OpenScoreResultLog(path string) (*ScoreResultLog, error) {
	return score.OpenResultLog(path)
}

// ScoreArtifact streams a dataset's chunks through a compiled model with
// per-chunk certified error accounting: bounded memory, bit-identical
// results for any worker count, and — with cfg.CursorDir set —
// crash-safe bit-identical resume. The artifact's program binds to its
// quantized weights and the certified accounting comes from its
// error-flow graph at its format; score a network by building its
// artifact first (BuildArtifact).
func ScoreArtifact(art *Artifact, man *ScoreManifest, cfg ScoreConfig) (*ScoreResult, error) {
	return score.ScoreArtifact(art, man, cfg)
}

// ScoreArtifactFile is ScoreArtifact over an on-disk dataset directory.
func ScoreArtifactFile(art *Artifact, manifestPath string, cfg ScoreConfig) (*ScoreResult, error) {
	return score.ScoreArtifactFile(art, manifestPath, cfg)
}
