// Package artifact implements the ahead-of-time compiled model
// container: one CRC32C-framed file bundling everything a serving
// process needs to cold-start a model without recompiling or
// re-deriving anything —
//
//   - the serving network (weights already quantized at build time for
//     the chosen format), as a verbatim v3 model frame;
//   - the compiled op program (nn.Program) for that network, so boot is
//     Program.Bind — a validate-and-allocate step — instead of a
//     structural recompile;
//   - the error-flow graph of the ORIGINAL full-precision network plus
//     a per-linear-layer quantization step table over every supported
//     format, so /v1/plan and per-request budget checks are answered
//     from the artifact alone — the certified bound travels with the
//     weights, not with the process that computed it;
//   - the certified quantization bound at the serving format, pinned at
//     build time and re-verified bit-for-bit at load.
//
// The file is one internal/integrity frame under Magic. Decode is
// detect-or-refuse: any damage surfaces as a typed integrity error,
// and any decodable byte string re-encodes to itself (canonical form),
// so the format cannot drift silently — future layouts must bump the
// magic.
package artifact

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
)

// Magic identifies version 1 of the ahead-of-time artifact container.
const Magic = "ERRPROPAOT1"

// maxArtifactBytes caps the declared body length so a corrupt length
// field cannot size an absurd allocation from untrusted bytes.
const maxArtifactBytes = 1 << 30

// Decode-time structural caps; all far above anything the repo builds.
const (
	maxLabelBytes  = 1 << 12
	maxRowNorms    = 1 << 20
	maxGraphNodes  = 1 << 20
	maxGraphDepth  = 512
	maxSeqChildren = 1 << 16
)

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
	// Program is the compiled op program for Net; Bind it to cold-start
	// an engine without recompiling.
	Program *nn.Program
	// Root is the error-flow graph of the original (pre-quantization)
	// network. Its linear ops carry no weight tensors — quantization
	// steps come from the build-time tables via StepsFor.
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

// Build compiles net into an artifact serving format f: quantize the
// weights (f != FP32), compile the op program, translate the error-flow
// graph, tabulate every format's quantization steps, and pin the
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
	prog, err := nn.CompileProgram(serving)
	if err != nil {
		return nil, fmt.Errorf("artifact: compiling program: %w", err)
	}
	root, err := core.FromNetwork(net)
	if err != nil {
		return nil, fmt.Errorf("artifact: building error-flow graph: %w", err)
	}
	a := &Artifact{
		Format:  f,
		Net:     serving,
		Program: prog,
		Root:    root,
		steps:   make(map[*nn.LinearOp][]float64),
	}
	for _, nd := range root.LinearNodes() {
		tbl := make([]float64, len(stepFormats))
		for i, sf := range stepFormats {
			tbl[i] = numfmt.StepSize(sf, nd.Op.Weights)
		}
		a.steps[nd.Op] = tbl
	}
	steps, err := a.StepsFor(f)
	if err != nil {
		return nil, err
	}
	a.QuantBound = core.Analyze(root, steps).QuantizationBound()
	body, err := a.encodeBody()
	if err != nil {
		return nil, err
	}
	a.Checksum = integrity.ChecksumString(integrity.Checksum(body))
	return a, nil
}

// Encode serializes the artifact in its canonical framed form.
func (a *Artifact) Encode() ([]byte, error) {
	body, err := a.encodeBody()
	if err != nil {
		return nil, err
	}
	return integrity.Frame(Magic, body), nil
}

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
	w.section(a.Program.EncodeBinary())
	g := &bodyWriter{}
	if err := encodeNode(g, a.Root, a.steps); err != nil {
		return nil, err
	}
	w.section(g.buf.Bytes())
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
// scores becomes an artifact here. A file carrying the artifact magic is
// decoded and fully verified, and its baked-in format wins over f; any
// other file is read as a saved network (nn.Save) and compiled at f in
// memory by Build. built reports which of the two happened. Errors name
// the file.
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

// SniffMagic reports whether raw begins with the artifact magic —
// the auto-detection hook Load uses to pick the artifact path over the
// saved-network path.
func SniffMagic(raw []byte) bool {
	return len(raw) >= len(Magic) && string(raw[:len(Magic)]) == Magic
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("artifact: %w: %s", integrity.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode parses and verifies an artifact:
//
//  1. frame: the integrity frame (magic, declared length, CRC32C);
//  2. structure: every section decodes within its caps;
//  3. canonical form: the parsed content re-encodes to exactly the
//     input bytes (so decode/encode is a byte bijection);
//  4. consistency: the embedded program equals a fresh CompileProgram
//     of the embedded network, and the stored certified bound equals a
//     fresh analysis of the embedded graph, bit for bit.
//
// Any failure is a typed integrity error; Decode never returns a
// partially trusted artifact.
func Decode(raw []byte) (*Artifact, error) {
	_, body, crc, err := integrity.Unframe(raw, maxArtifactBytes, Magic)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}

	r := &bodyReader{raw: body}
	formatName := r.str8()
	quantBound := r.f64()
	modelRaw := r.section()
	progRaw := r.section()
	graphRaw := r.section()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, corrupt("%d trailing bytes after graph section", len(body)-r.off)
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
	prog, err := nn.DecodeProgram(progRaw)
	if err != nil {
		return nil, corrupt("embedded program: %v", err)
	}
	steps := make(map[*nn.LinearOp][]float64)
	gr := &bodyReader{raw: graphRaw}
	root, err := decodeNode(gr, steps, 0)
	if err != nil {
		return nil, err
	}
	if gr.off != len(graphRaw) {
		return nil, corrupt("%d trailing bytes inside graph section", len(graphRaw)-gr.off)
	}

	a := &Artifact{
		Format:     f,
		Net:        net,
		Program:    prog,
		Root:       root,
		QuantBound: quantBound,
		Checksum:   integrity.ChecksumString(crc),
		steps:      steps,
	}

	// Canonical form: the parsed content must re-encode to the input
	// bytes exactly. This rejects every non-canonical variant a decoder
	// would otherwise tolerate (legacy model framings, denormalized spec
	// JSON, reordered sections) and makes decode -> encode a bijection.
	reenc, err := a.encodeBody()
	if err != nil {
		return nil, corrupt("re-encoding for canonical check: %v", err)
	}
	if !bytes.Equal(reenc, body) {
		return nil, corrupt("non-canonical encoding: decode -> encode does not reproduce the input")
	}

	// Spec revalidation: the embedded program must be exactly what the
	// compiler produces for the embedded network, so Bind can never run
	// a plan that disagrees with the weights next to it.
	recompiled, err := nn.CompileProgram(net)
	if err != nil {
		return nil, corrupt("embedded model does not compile: %v", err)
	}
	if !bytes.Equal(recompiled.EncodeBinary(), progRaw) {
		return nil, corrupt("embedded program does not match the embedded model's compile")
	}

	// Bound revalidation: recompute the certified bound from the shipped
	// graph and step tables; it must match the stored value bit for bit.
	sf, err := a.StepsFor(f)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	if got := core.Analyze(root, sf).QuantizationBound(); math.Float64bits(got) != math.Float64bits(quantBound) {
		return nil, corrupt("stored certified bound %v does not match recomputed %v", quantBound, got)
	}
	if in := root.InputDim(); in != net.InputDim {
		return nil, corrupt("graph input dim %d != model input dim %d", in, net.InputDim)
	}
	return a, nil
}
