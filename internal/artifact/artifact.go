// Package artifact implements the ahead-of-time compiled model
// container: one CRC32C-framed file bundling everything a serving
// process needs to cold-start a model and certify its answers —
//
//   - the serving network (weights already quantized at build time for
//     the chosen format), as a verbatim v3 model frame;
//   - one row of numbers per linear op of the ORIGINAL full-precision
//     network — its spectral norm σ, its weight row norms, and its
//     quantization step in every supported format — so /v1/plan and
//     per-request budget checks are answered from the artifact alone:
//     the certified bound travels with the weights, not with the process
//     that computed it;
//   - the certified quantization bound at the serving format, pinned at
//     build time and re-verified bit-for-bit at load.
//
// Each fact has one home. The compiled op program (nn.Program) and the
// structure of the error-flow graph are not shipped: both are derived
// from the shipped network when the artifact is built or decoded,
// through the same code, so a built artifact and a decoded one cannot
// differ.
//
// The file is one internal/integrity frame under Magic. Decode is
// detect-or-refuse: any damage surfaces as a typed integrity error,
// and any decodable byte string re-encodes to itself (canonical form),
// so the format cannot drift silently — future layouts must bump the
// magic. A version-1 file is refused with ErrV1.
package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"

	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
)

// Magic identifies version 2 of the ahead-of-time artifact container.
const Magic = "ERRPROPAOT2"

// magicV1 is the retired version-1 magic. A version-1 body also shipped
// the compiled program and a serialized error-flow graph, which version
// 2 derives from the network instead.
const magicV1 = "ERRPROPAOT1"

// ErrV1 is the refusal of a version-1 artifact.
var ErrV1 = errors.New("version 1 artifact (" + magicV1 + ") is no longer read; recompile it with errpropd -compile")

// maxArtifactBytes caps the declared body length so a corrupt length
// field cannot size an absurd allocation from untrusted bytes.
const maxArtifactBytes = 1 << 30

// stepFormats is the fixed set (and serialized order) of quantized
// formats every linear node's build-time step table covers: every
// format numfmt.ParseFormat accepts except the FP32 baseline. The order
// is part of the byte format — changing it means a new magic.
var stepFormats = []numfmt.Format{
	numfmt.TF32, numfmt.FP16, numfmt.BF16, numfmt.INT8,
	numfmt.FP8E4M3, numfmt.FP8E5M2,
}

// stepIndex returns f's column in the step table, or -1.
func stepIndex(f numfmt.Format) int {
	for i, sf := range stepFormats {
		if sf == f {
			return i
		}
	}
	return -1
}

// Artifact is a decoded (or freshly built) ahead-of-time model bundle.
type Artifact struct {
	// Format is the serving weight format the artifact was built for.
	Format numfmt.Format
	// Net is the serving network: quantized at build time for Format,
	// or the original full-precision network when Format is FP32.
	Net *nn.Network
	// Program is the compiled op program for Net, derived from it; Bind
	// it to cold-start an engine.
	Program *nn.Program
	// Root is the error-flow graph the bound is computed on: its
	// structure derives from Net, and each linear op's σ and row norms
	// are the original (pre-quantization) network's, from the shipped
	// rows. Its linear ops carry no weight tensors — quantization steps
	// come from the build-time tables via StepsFor.
	Root *core.Node
	// QuantBound is the certified QoI quantization bound at Format
	// (core.Analysis.QuantizationBound), computed at build time and
	// re-verified bit-for-bit by Decode.
	QuantBound float64
	// Checksum is the container body's CRC32C in display form
	// ("crc32c:%08x") — the identity /v1/models reports and a gateway
	// registry pins.
	Checksum string

	// steps maps each linear node's op to its build-time step table,
	// one entry per stepFormats column.
	steps map[*nn.LinearOp][]float64
}

// StepsFor returns a step function for f backed by the artifact's
// build-time tables: bit-identical to recomputing numfmt.StepSize
// against the original weights, without needing them. FP32 returns
// (nil, nil) — no quantization — matching core.StepsForFormat.
func (a *Artifact) StepsFor(f numfmt.Format) (core.StepFunc, error) {
	if f == numfmt.FP32 {
		return nil, nil
	}
	idx := stepIndex(f)
	if idx < 0 {
		return nil, fmt.Errorf("artifact: no build-time step table for format %s", f)
	}
	return func(op *nn.LinearOp) float64 {
		tbl, ok := a.steps[op]
		if !ok {
			// An op outside this artifact's graph: poison the bound rather
			// than silently under-reporting it.
			return math.NaN()
		}
		return tbl[idx]
	}, nil
}

// opRow is the one row of numbers an artifact ships per linear op: what
// the analysis needs of the original network's op that the quantized
// shipped network cannot supply. Its length is fixed by the op the
// shipped network derives (len(RowNorms)), so it carries no counts.
type opRow struct {
	sigma    float64
	rowNorms []float64
	steps    []float64 // one per stepFormats column
}

// Build compiles net into an artifact serving format f: quantize the
// weights (f != FP32), tabulate each linear op's σ, row norms and every
// format's quantization step from the original weights, derive the
// program and error-flow graph from the serving network, and pin the
// certified bound. net must carry its Spec.
func Build(net *nn.Network, f numfmt.Format) (*Artifact, error) {
	if net == nil {
		return nil, fmt.Errorf("artifact: nil network")
	}
	if net.Spec == nil {
		return nil, fmt.Errorf("artifact: network has no Spec; cannot serialize")
	}
	serving := net
	if f != numfmt.FP32 {
		q, err := quant.Quantize(net, f)
		if err != nil {
			return nil, fmt.Errorf("artifact: quantizing for %s: %w", f, err)
		}
		serving = q
	}
	ops := net.LinearOps()
	a := &Artifact{Format: f, Net: serving}
	err := a.derive(func(i int, op *nn.LinearOp) (opRow, error) {
		if i >= len(ops) || ops[i].LayerName != op.LayerName || len(ops[i].RowNorms) != len(op.RowNorms) {
			return opRow{}, fmt.Errorf("linear op %d of the serving network does not match the original's", i)
		}
		r := opRow{sigma: ops[i].Sigma, rowNorms: ops[i].RowNorms, steps: make([]float64, len(stepFormats))}
		for k, sf := range stepFormats {
			r.steps[k] = numfmt.StepSize(sf, ops[i].Weights)
		}
		return r, nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if n := len(a.steps); n != len(ops) {
		return nil, fmt.Errorf("artifact: serving network has %d linear ops, the original %d", n, len(ops))
	}
	steps, err := a.StepsFor(f)
	if err != nil {
		return nil, err
	}
	a.QuantBound = core.Analyze(a.Root, steps).QuantizationBound()
	body, err := a.encodeBody()
	if err != nil {
		return nil, err
	}
	a.Checksum = integrity.ChecksumString(integrity.Checksum(body))
	return a, nil
}

// derive sets a.Program and a.Root from a.Net. row supplies each linear
// op's numbers in LinearNodes order, given the op as the shipped network
// derives it; they replace its σ and row norms, and its weights are
// dropped. Build and Decode both go through here.
func (a *Artifact) derive(row func(i int, op *nn.LinearOp) (opRow, error)) error {
	prog, err := nn.CompileProgram(a.Net)
	if err != nil {
		return fmt.Errorf("compiling program: %w", err)
	}
	root, err := core.FromNetwork(a.Net)
	if err != nil {
		return fmt.Errorf("building error-flow graph: %w", err)
	}
	a.Program, a.Root = prog, root
	a.steps = make(map[*nn.LinearOp][]float64)
	for i, nd := range root.LinearNodes() {
		r, err := row(i, nd.Op)
		if err != nil {
			return err
		}
		nd.Op.Sigma, nd.Op.RowNorms, nd.Op.Weights = r.sigma, r.rowNorms, nil
		a.steps[nd.Op] = r.steps
	}
	return nil
}

// Encode serializes the artifact in its canonical framed form.
func (a *Artifact) Encode() ([]byte, error) {
	body, err := a.encodeBody()
	if err != nil {
		return nil, err
	}
	return integrity.Frame(Magic, body), nil
}

// encodeBody writes the format, the certified bound, the model frame,
// and one row per linear op: σ, the row norms, the step table.
func (a *Artifact) encodeBody() ([]byte, error) {
	w := &bodyWriter{}
	if err := w.str8(a.Format.String()); err != nil {
		return nil, err
	}
	w.f64(a.QuantBound)
	var model bytes.Buffer
	if err := a.Net.Save(&model); err != nil {
		return nil, fmt.Errorf("artifact: serializing model: %w", err)
	}
	w.section(model.Bytes())
	for _, nd := range a.Root.LinearNodes() {
		op := nd.Op
		tbl, ok := a.steps[op]
		if !ok || len(tbl) != len(stepFormats) {
			return nil, fmt.Errorf("artifact: linear op %q has no build-time step table", op.LayerName)
		}
		w.f64(op.Sigma)
		for _, v := range op.RowNorms {
			w.f64(v)
		}
		for _, v := range tbl {
			w.f64(v)
		}
	}
	return w.buf.Bytes(), nil
}

// WriteFile writes the artifact atomically (integrity.WriteFileAtomic).
func WriteFile(path string, a *Artifact) error {
	raw, err := a.Encode()
	if err != nil {
		return err
	}
	return integrity.WriteFileAtomic(path, raw)
}

// ReadFile reads and fully verifies an artifact file.
func ReadFile(path string) (*Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

// Load is the one model-file loader: every model file a CLI serves or
// scores becomes an artifact here. A file carrying an artifact magic is
// decoded and fully verified, and its baked-in format wins over f (a
// version-1 artifact is refused with ErrV1); any other file is read as a
// saved network (nn.Save) and compiled at f in memory by Build. built
// reports which of the two happened. Errors name the file.
func Load(path string, f numfmt.Format) (a *Artifact, built bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if SniffMagic(raw) {
		if a, err = Decode(raw); err != nil {
			return nil, false, fmt.Errorf("artifact %s: %w", path, err)
		}
		return a, false, nil
	}
	net, err := nn.DecodeModel(raw)
	if err != nil {
		return nil, false, fmt.Errorf("loading %s: %w", path, err)
	}
	if a, err = Build(net, f); err != nil {
		return nil, false, fmt.Errorf("compiling %s: %w", path, err)
	}
	return a, true, nil
}

// SniffMagic reports whether raw begins with an artifact magic, of this
// version or of version 1 — the auto-detection hook Load uses to pick
// the artifact path over the saved-network path.
func SniffMagic(raw []byte) bool {
	return bytes.HasPrefix(raw, []byte(Magic)) || bytes.HasPrefix(raw, []byte(magicV1))
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("artifact: %w: %s", integrity.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode parses and verifies an artifact in three layers:
//
//  1. frame: the integrity frame (magic, declared length, CRC32C);
//  2. canonical form: the embedded model decodes, the program and the
//     error-flow graph derive from it, each linear op takes its row of
//     finite, non-negative numbers, and the result re-encodes to exactly
//     the input bytes (so decode/encode is a byte bijection);
//  3. bound: the stored certified bound equals a fresh analysis of the
//     derived graph, bit for bit.
//
// A version-1 artifact is refused with ErrV1. Any other failure is a
// typed integrity error; Decode never returns a partially trusted
// artifact.
func Decode(raw []byte) (*Artifact, error) {
	if bytes.HasPrefix(raw, []byte(magicV1)) {
		return nil, fmt.Errorf("artifact: %w", ErrV1)
	}
	_, body, crc, err := integrity.Unframe(raw, maxArtifactBytes, Magic)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}

	r := &bodyReader{raw: body}
	formatName := r.str8()
	quantBound := r.f64()
	modelRaw := r.section()
	if r.err != nil {
		return nil, r.err
	}
	f, err := numfmt.ParseFormat(formatName)
	if err != nil {
		return nil, corrupt("unknown serving format %q", formatName)
	}
	if math.IsNaN(quantBound) || math.IsInf(quantBound, 0) || quantBound < 0 {
		return nil, corrupt("non-finite or negative certified bound %v", quantBound)
	}
	net, err := nn.DecodeModel(modelRaw)
	if err != nil {
		return nil, fmt.Errorf("artifact: embedded model: %w", err)
	}

	a := &Artifact{
		Format:     f,
		Net:        net,
		QuantBound: quantBound,
		Checksum:   integrity.ChecksumString(crc),
	}
	err = a.derive(func(_ int, op *nn.LinearOp) (opRow, error) {
		row := opRow{
			sigma:    r.nonneg("sigma"),
			rowNorms: make([]float64, len(op.RowNorms)),
			steps:    make([]float64, len(stepFormats)),
		}
		for i := range row.rowNorms {
			row.rowNorms[i] = r.nonneg("row norm")
		}
		for i := range row.steps {
			row.steps[i] = r.nonneg("quantization step")
		}
		return row, r.err
	})
	if r.err != nil {
		return nil, r.err
	}
	if err != nil {
		return nil, corrupt("embedded model: %v", err)
	}
	if r.off != len(body) {
		return nil, corrupt("%d trailing bytes after the last linear op's row", len(body)-r.off)
	}

	// Canonical form: the parsed content must re-encode to the input
	// bytes exactly. This rejects every non-canonical variant a decoder
	// would otherwise tolerate (legacy model framings, denormalized spec
	// JSON) and makes decode -> encode a bijection.
	reenc, err := a.encodeBody()
	if err != nil {
		return nil, corrupt("re-encoding for canonical check: %v", err)
	}
	if !bytes.Equal(reenc, body) {
		return nil, corrupt("non-canonical encoding: decode -> encode does not reproduce the input")
	}

	// Bound revalidation: recompute the certified bound from the derived
	// graph and the shipped rows; it must match the stored value bit for
	// bit.
	sf, err := a.StepsFor(f)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if got := core.Analyze(a.Root, sf).QuantizationBound(); math.Float64bits(got) != math.Float64bits(quantBound) {
		return nil, corrupt("stored certified bound %v does not match recomputed %v", quantBound, got)
	}
	return a, nil
}
