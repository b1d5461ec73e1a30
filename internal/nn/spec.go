package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

// LayerSpec describes one layer of a network architecture. Specs are the
// serialization format and the template from which quantized inference
// copies are constructed.
type LayerSpec struct {
	Type string `json:"type"` // dense | conv | act | round | avgpool | maxpool | gap | bn | upsample | skipconcat | attention | residual

	Name string `json:"name,omitempty"`

	// dense
	In  int `json:"in,omitempty"`
	Out int `json:"out,omitempty"`

	// conv / pooling input geometry
	C int `json:"c,omitempty"`
	H int `json:"h,omitempty"`
	W int `json:"w,omitempty"`

	// conv
	OutC   int `json:"outc,omitempty"`
	K      int `json:"k,omitempty"`
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`

	// act
	Act string `json:"act,omitempty"`

	// round: activation quantization format name (numfmt.Format.String)
	Fmt string `json:"fmt,omitempty"`

	// dense/conv options
	PSN bool `json:"psn,omitempty"`
	// InitAct hints the weight init distribution (defaults to Act-free
	// Kaiming).
	InitAct string `json:"initact,omitempty"`

	// residual
	Branch   []LayerSpec `json:"branch,omitempty"`
	Shortcut []LayerSpec `json:"shortcut,omitempty"`
}

// Spec is a complete architecture description.
type Spec struct {
	Name     string      `json:"name"`
	InputDim int         `json:"input_dim"`
	Layers   []LayerSpec `json:"layers"`
}

// Build constructs a freshly initialized Network from the spec. The seed
// makes initialization deterministic. The spec is validated first, so a
// geometry mistake fails with a position-annotated error before any
// parameter is allocated.
func (s *Spec) Build(seed int64) (*Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	layers, err := buildLayers(s.Layers, rng)
	if err != nil {
		return nil, err
	}
	return &Network{InputDim: s.InputDim, Layers: layers, Spec: s}, nil
}

// Validate statically checks the spec before any network is built: every
// layer's own geometry must be well-formed, and consecutive layers must
// chain — each layer's input feature count has to equal the previous
// layer's output feature count (tracked through residual branch/shortcut
// pairs and skip-concat branches as well). Errors carry the layer's
// position path, e.g. `layers[3].branch[1] (conv "c1")`, so a deep
// mistake in a generated spec is located immediately.
//
// Validation is purely structural: it allocates nothing and never runs
// the RNG, so it is safe to call on untrusted serialized specs before
// Build pays for parameter initialization.
func (s *Spec) Validate() error {
	if s.InputDim < 0 {
		return fmt.Errorf("nn: spec %q: negative input dim %d", s.Name, s.InputDim)
	}
	_, err := validateLayers(s.Layers, s.InputDim, "layers")
	return err
}

// InferShapes statically computes the flattened output feature count of
// a spec — the same chaining walk Validate performs — without building a
// network or running any data through it. It errors if the spec is
// invalid or if the output dimension cannot be determined statically
// (e.g. an all-activation spec with unknown input). Serving uses this
// (via Engine.OutputDim) instead of probing with a zero-sample forward.
func InferShapes(s *Spec) (int, error) {
	if s.InputDim < 0 {
		return 0, fmt.Errorf("nn: spec %q: negative input dim %d", s.Name, s.InputDim)
	}
	out, err := validateLayers(s.Layers, s.InputDim, "layers")
	if err != nil {
		return 0, err
	}
	if out <= 0 {
		return 0, fmt.Errorf("nn: spec %q: output dim cannot be determined statically", s.Name)
	}
	return out, nil
}

// validateLayers checks one layer sequence starting from inDim flattened
// features (0 = unknown, adopted from the first layer that declares an
// input geometry). It returns the sequence's output feature count (0 if
// it cannot be determined, e.g. an all-activation sequence with unknown
// input).
func validateLayers(specs []LayerSpec, inDim int, path string) (int, error) {
	cur := inDim
	for i, ls := range specs {
		fail := func(format string, args ...any) (int, error) {
			name := ls.Name
			if name == "" {
				name = ls.Type
			}
			return 0, fmt.Errorf("nn: spec %s[%d] (%s %q): %s", path, i, ls.Type, name, fmt.Sprintf(format, args...))
		}
		// chain verifies this layer's declared input feature count
		// against the running output of the preceding layers.
		chain := func(layerIn int) error {
			if cur > 0 && layerIn != cur {
				_, err := fail("input dim %d does not chain from previous output %d", layerIn, cur)
				return err
			}
			return nil
		}
		switch ls.Type {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return fail("needs positive in/out, got %d/%d", ls.In, ls.Out)
			}
			if err := chain(ls.In); err != nil {
				return 0, err
			}
			cur = ls.Out
		case "conv":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 || ls.OutC <= 0 || ls.K <= 0 || ls.Stride <= 0 {
				return fail("needs positive c/h/w/outc/k/stride, got %d/%d/%d/%d/%d/%d", ls.C, ls.H, ls.W, ls.OutC, ls.K, ls.Stride)
			}
			if ls.Pad < 0 {
				return fail("negative padding %d", ls.Pad)
			}
			outH := tensor.ConvOutSize(ls.H, ls.K, ls.Stride, ls.Pad)
			outW := tensor.ConvOutSize(ls.W, ls.K, ls.Stride, ls.Pad)
			if outH <= 0 || outW <= 0 {
				return fail("kernel %d (stride %d, pad %d) does not fit %dx%d input", ls.K, ls.Stride, ls.Pad, ls.H, ls.W)
			}
			if err := chain(ls.C * ls.H * ls.W); err != nil {
				return 0, err
			}
			cur = ls.OutC * outH * outW
		case "act":
			if _, err := NewActivation(ls.Act); err != nil {
				return fail("%v", err)
			}
		case "round":
			f, err := numfmt.ParseFormat(ls.Fmt)
			if err != nil {
				return fail("%v", err)
			}
			if f == numfmt.INT8 {
				return fail("INT8 activation rounding needs calibration; unsupported")
			}
		case "avgpool", "maxpool":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 || ls.K <= 0 {
				return fail("needs positive c/h/w/k, got %d/%d/%d/%d", ls.C, ls.H, ls.W, ls.K)
			}
			if ls.K > ls.H || ls.K > ls.W {
				return fail("pool window %d exceeds %dx%d input", ls.K, ls.H, ls.W)
			}
			if err := chain(ls.C * ls.H * ls.W); err != nil {
				return 0, err
			}
			cur = ls.C * (ls.H / ls.K) * (ls.W / ls.K)
		case "bn":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 {
				return fail("needs positive c/h/w, got %d/%d/%d", ls.C, ls.H, ls.W)
			}
			if err := chain(ls.C * ls.H * ls.W); err != nil {
				return 0, err
			}
			cur = ls.C * ls.H * ls.W
		case "gap":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 {
				return fail("needs positive c/h/w, got %d/%d/%d", ls.C, ls.H, ls.W)
			}
			if err := chain(ls.C * ls.H * ls.W); err != nil {
				return 0, err
			}
			cur = ls.C
		case "upsample":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 {
				return fail("needs positive c/h/w, got %d/%d/%d", ls.C, ls.H, ls.W)
			}
			if err := chain(ls.C * ls.H * ls.W); err != nil {
				return 0, err
			}
			cur = ls.C * ls.H * ls.W * 4
		case "attention":
			if ls.In <= 0 || ls.Out <= 0 {
				return fail("needs positive token count (in) and dim (out), got %d/%d", ls.In, ls.Out)
			}
			if err := chain(ls.In * ls.Out); err != nil {
				return 0, err
			}
			cur = ls.In * ls.Out
		case "skipconcat":
			if ls.C <= 0 || ls.OutC <= 0 || ls.H <= 0 || ls.W <= 0 {
				return fail("needs positive identity channels (c), branch channels (outc) and h/w, got %d/%d/%d/%d", ls.C, ls.OutC, ls.H, ls.W)
			}
			in := ls.C * ls.H * ls.W
			if err := chain(in); err != nil {
				return 0, err
			}
			bOut, err := validateLayers(ls.Branch, in, fmt.Sprintf("%s[%d].branch", path, i))
			if err != nil {
				return 0, err
			}
			if want := ls.OutC * ls.H * ls.W; bOut > 0 && bOut != want {
				return fail("branch output %d != declared branch half %d (outc %d x %dx%d)", bOut, want, ls.OutC, ls.H, ls.W)
			}
			cur = (ls.C + ls.OutC) * ls.H * ls.W
		case "residual":
			bOut, err := validateLayers(ls.Branch, cur, fmt.Sprintf("%s[%d].branch", path, i))
			if err != nil {
				return 0, err
			}
			sOut, err := validateLayers(ls.Shortcut, cur, fmt.Sprintf("%s[%d].shortcut", path, i))
			if err != nil {
				return 0, err
			}
			if bOut > 0 && sOut > 0 && bOut != sOut {
				return fail("branch output %d != shortcut output %d; residual halves must agree", bOut, sOut)
			}
			switch {
			case bOut > 0:
				cur = bOut
			case sOut > 0:
				cur = sOut
			}
		default:
			return fail("unknown layer type")
		}
	}
	return cur, nil
}

func buildLayers(specs []LayerSpec, rng *rand.Rand) ([]Layer, error) {
	var out []Layer
	for i, ls := range specs {
		name := ls.Name
		if name == "" {
			name = fmt.Sprintf("%s%d", ls.Type, i)
		}
		switch ls.Type {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("nn: dense %q needs in/out", name)
			}
			out = append(out, NewDense(name, ls.In, ls.Out, ls.InitAct, ls.PSN, rng))
		case "conv":
			if ls.C <= 0 || ls.H <= 0 || ls.W <= 0 || ls.OutC <= 0 || ls.K <= 0 || ls.Stride <= 0 {
				return nil, fmt.Errorf("nn: conv %q needs geometry", name)
			}
			out = append(out, NewConv2D(name, ls.C, ls.H, ls.W, ls.OutC, ls.K, ls.Stride, ls.Pad, ls.PSN, rng))
		case "act":
			a, err := NewActivation(ls.Act)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case "round":
			f, err := numfmt.ParseFormat(ls.Fmt)
			if err != nil {
				return nil, err
			}
			r, err := NewRoundLayer(name, f)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		case "avgpool":
			out = append(out, NewAvgPool2D(name, ls.C, ls.H, ls.W, ls.K))
		case "maxpool":
			out = append(out, NewMaxPool2D(name, ls.C, ls.H, ls.W, ls.K))
		case "bn":
			out = append(out, NewBatchNorm2D(name, ls.C, ls.H, ls.W))
		case "gap":
			out = append(out, NewGlobalAvgPool(name, ls.C, ls.H, ls.W))
		case "upsample":
			out = append(out, NewUpsample2D(name, ls.C, ls.H, ls.W))
		case "attention":
			// In = token count T, Out = per-token dimension D.
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("nn: attention %q needs token count (in) and dim (out)", name)
			}
			out = append(out, NewSelfAttention(name, ls.In, ls.Out, rng))
		case "skipconcat":
			// C = identity-half channels, OutC = branch-half channels.
			branch, err := buildLayers(ls.Branch, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, NewSkipConcat(name, ls.C, ls.OutC, ls.H, ls.W, branch))
		case "residual":
			branch, err := buildLayers(ls.Branch, rng)
			if err != nil {
				return nil, err
			}
			shortcut, err := buildLayers(ls.Shortcut, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, NewResidual(name, branch, shortcut))
		default:
			return nil, fmt.Errorf("nn: unknown layer type %q", ls.Type)
		}
	}
	return out, nil
}

// Model magics. "ERRPROPNN2" carried no integrity information;
// "ERRPROPNN3" frames the same body with a declared length and a CRC32C
// checksum, so a truncated or bit-flipped model file is detected before
// any of its bytes are trusted. Save writes v3; Load reads both.
const (
	modelMagic   = "ERRPROPNN2"
	modelMagicV3 = "ERRPROPNN3"
)

// maxModelBytes caps the declared v3 body length (1 GiB — far above any
// network this repo trains) so a corrupt length field cannot size an
// absurd allocation from untrusted bytes.
const maxModelBytes = 1 << 30

// Save serializes the network (spec + parameter values) to w as a v3
// model: the body in an internal/integrity frame. Networks without a
// Spec cannot be saved.
func (n *Network) Save(w io.Writer) error {
	if n.Spec == nil {
		return fmt.Errorf("nn: network has no Spec; cannot serialize")
	}
	var body bytes.Buffer
	if err := n.saveBody(&body); err != nil {
		return err
	}
	_, err := w.Write(integrity.Frame(modelMagicV3, body.Bytes()))
	return err
}

// saveBody writes the magic-less model body: spec JSON, parameters, and
// spectral-norm estimates (identical to the v2 wire layout after its
// magic, so the legacy reader and the v3 reader share loadBody).
func (n *Network) saveBody(bw io.Writer) error {
	specJSON, err := json.Marshal(n.Spec)
	if err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(specJSON))); err != nil {
		return err
	}
	if _, err := bw.Write(specJSON); err != nil {
		return err
	}
	params := n.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Data))); err != nil {
			return err
		}
		for _, v := range p.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	// Persist the spectral-norm estimates so PSN effective weights are
	// bit-identical after Load (power iteration from a cold start can
	// land slightly off when top singular values cluster).
	sigmas := n.spectralSigmas()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(sigmas))); err != nil {
		return err
	}
	for _, s := range sigmas {
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(s)); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a network serialized by Save from r, whole, and decodes it
// with DecodeModel.
func Load(r io.Reader) (*Network, error) {
	// One byte past the largest legal frame, so an oversized input
	// reaches Unframe as trailing bytes, not as a clean cut.
	limit := int64(integrity.FrameLen(modelMagicV3, maxModelBytes)) + 1
	raw, err := io.ReadAll(io.LimitReader(r, limit))
	if err != nil {
		return nil, fmt.Errorf("nn: model: reading: %w", err)
	}
	return DecodeModel(raw)
}

// DecodeModel decodes a network serialized by Save — the checksummed v3
// frame, which raw must hold exactly, or the legacy v2 layout — and
// refreshes its spectral state so it is immediately ready for analysis
// and inference. Damage to a v3 model surfaces as an error wrapping
// integrity.ErrCorrupt or integrity.ErrTruncated, so callers can
// distinguish a bad model file from a usage error.
func DecodeModel(raw []byte) (*Network, error) {
	if body, ok := bytes.CutPrefix(raw, []byte(modelMagic)); ok {
		// Legacy unchecksummed format: no verification possible.
		return loadBody(bytes.NewReader(body), false)
	}
	_, body, _, err := integrity.Unframe(raw, maxModelBytes, modelMagicV3)
	if err != nil {
		return nil, fmt.Errorf("nn: model: %w", err)
	}
	return loadBody(bytes.NewReader(body), true)
}

// truncOr maps unexpected end-of-stream onto the typed truncation
// sentinel and passes other I/O errors through with context.
func truncOr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("nn: model: %w: %s", integrity.ErrTruncated, what)
	}
	return fmt.Errorf("nn: model: reading %s: %w", what, err)
}

// loadBody parses the model body (spec, params, sigmas). verified says
// the bytes already passed a checksum, in which case any structural
// mismatch means the model was written wrong (corrupt), not damaged in
// transit — either way the typed sentinel applies.
func loadBody(br io.Reader, verified bool) (*Network, error) {
	var specLen uint32
	if err := binary.Read(br, binary.LittleEndian, &specLen); err != nil {
		return nil, truncOr(err, "spec length")
	}
	if specLen > 1<<24 {
		return nil, fmt.Errorf("nn: model: %w: implausible spec length %d", integrity.ErrCorrupt, specLen)
	}
	specJSON := make([]byte, specLen)
	if _, err := io.ReadFull(br, specJSON); err != nil {
		return nil, truncOr(err, "spec JSON")
	}
	var spec Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, fmt.Errorf("nn: model: %w: spec JSON: %v", integrity.ErrCorrupt, err)
	}
	// Validate the deserialized (untrusted) spec before Build allocates
	// parameters; Build re-checks, but failing here pins the error to
	// the load path.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	net, err := spec.Build(0)
	if err != nil {
		return nil, err
	}
	var nParams uint32
	if err := binary.Read(br, binary.LittleEndian, &nParams); err != nil {
		return nil, truncOr(err, "parameter count")
	}
	params := net.Params()
	if int(nParams) != len(params) {
		return nil, fmt.Errorf("nn: model: %w: parameter count %d != spec's %d", integrity.ErrCorrupt, nParams, len(params))
	}
	for _, p := range params {
		var plen uint32
		if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
			return nil, truncOr(err, "parameter length")
		}
		if int(plen) != len(p.Data) {
			return nil, fmt.Errorf("nn: model: %w: parameter %s length %d != expected %d", integrity.ErrCorrupt, p.Name, plen, len(p.Data))
		}
		for i := range p.Data {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return nil, truncOr(err, "parameter data")
			}
			p.Data[i] = math.Float64frombits(bits)
		}
	}
	// Restore the persisted sigma estimates. Checksummed bodies must
	// carry a consistent sigma section; the unverified legacy path keeps
	// its lenient fall-back-to-recompute behavior.
	var nSigma uint32
	if err := binary.Read(br, binary.LittleEndian, &nSigma); err == nil {
		sigmas := make([]float64, nSigma)
		ok := true
		for i := range sigmas {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				ok = false
				break
			}
			sigmas[i] = math.Float64frombits(bits)
		}
		if ok && net.setSpectralSigmas(sigmas) {
			return net, nil
		}
		if verified {
			return nil, fmt.Errorf("nn: model: %w: inconsistent sigma section (%d entries)", integrity.ErrCorrupt, nSigma)
		}
	} else if verified {
		return nil, truncOr(err, "sigma count")
	}
	net.RefreshSigmas()
	return net, nil
}
