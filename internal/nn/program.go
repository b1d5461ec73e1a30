package nn

// program.go is the pure, data-only half of the inference compiler.
//
// CompileInference historically walked the layer graph and built runnable
// ops in one pass. That pass is now split in two:
//
//   - CompileProgram performs the structural walk — static shape
//     inference, the activation-fusion peephole, arena-slot allocation —
//     and emits a Program: a flat, batch-independent description of the
//     op sequence. Compiling the same network always yields the same
//     Program.
//   - Program.Bind resolves a Program against a live network: it
//     validates every op against the layer it references, allocates the
//     buffer arena for maxBatch-column inputs, and produces a runnable
//     Engine.
//
// An ahead-of-time artifact ships the network, not the Program: decoding
// it runs CompileProgram on the shipped network, and Bind turns that
// into the engine a from-spec compile would have produced.
// CompileInference itself is CompileProgram + Bind — one compiler, two
// entry points.

import (
	"fmt"

	"github.com/scidata/errprop/internal/tensor"
)

// OpKind discriminates Program ops.
type OpKind uint8

const (
	OpDense OpKind = iota
	OpConv
	OpAct
	OpRound
	OpMaxPool
	OpAvgPool
	OpGAP
	OpUpsample
	OpBatchNorm
	OpAttention
	OpAdd
	OpConcat
)

// opKindNames labels kinds in Bind errors and program dumps.
var opKindNames = [...]string{
	"dense", "conv", "act", "round", "maxpool", "avgpool", "gap",
	"upsample", "batchnorm", "attention", "add", "concat",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// ProgOp is one step of a Program. Slot indices refer to
// Program.SlotRows; layer indices refer to the network's pre-order layer
// flattening (each layer of a sequence in order, then for a Residual its
// Branch then Shortcut sublayers, for a SkipConcat its Branch sublayers).
type ProgOp struct {
	Kind OpKind
	// Layer is the pre-order flatten index of the layer this op executes.
	Layer int32
	// Act is the flatten index of the activation fused into this op's
	// write loop, or -1 when none was fused.
	Act int32
	// In is the primary input slot (for OpAdd, the branch operand).
	In int32
	// Aux is the secondary input slot — OpAdd's shortcut operand,
	// OpConcat's branch — or -1 for ops with a single input.
	Aux int32
	// Out is the output slot.
	Out int32
}

// Program is a compiled inference plan in pure data form: no layer
// pointers, no scratch buffers, nothing batch-dependent. It is the
// deterministic vocabulary the golden *.program dumps render
// (Engine.Program).
type Program struct {
	// InDim and OutDim are the flattened input/output feature counts
	// (static shape inference; no data probe).
	InDim, OutDim int
	// Out is the arena slot holding the network output after the last op.
	Out int
	// SlotRows is each arena slot's feature count; slot 0 is the input.
	SlotRows []int
	// Ops is the op sequence, executed in order.
	Ops []ProgOp
}

// flattenLayers appends the layer tree in pre-order: each layer, then a
// Residual's Branch and Shortcut sublayers, then a SkipConcat's Branch
// sublayers. CompileProgram assigns ProgOp.Layer indices in exactly this
// order, so Bind can resolve them against any structurally identical
// network.
func flattenLayers(layers []Layer, out []Layer) []Layer {
	for _, l := range layers {
		out = append(out, l)
		switch t := l.(type) {
		case *Residual:
			out = flattenLayers(t.Branch, out)
			out = flattenLayers(t.Shortcut, out)
		case *SkipConcat:
			out = flattenLayers(t.Branch, out)
		}
	}
	return out
}

// programBuilder accumulates ops and arena slot shapes during the
// structural compile walk, assigning pre-order layer indices as it goes.
type programBuilder struct {
	slotRows  []int
	ops       []ProgOp
	nextLayer int32
}

// alloc reserves an arena slot of the given feature count.
func (b *programBuilder) alloc(rows int) int {
	b.slotRows = append(b.slotRows, rows)
	return len(b.slotRows) - 1
}

// layerIdx consumes the next pre-order layer index; calls must mirror
// flattenLayers' append order exactly.
func (b *programBuilder) layerIdx() int32 {
	i := b.nextLayer
	b.nextLayer++
	return i
}

func (b *programBuilder) emit(op ProgOp) { b.ops = append(b.ops, op) }

// CompileProgram runs the structural half of the inference compiler:
// shape inference, activation fusion, and slot allocation, with the same
// failure modes (and error text) as CompileInference. The resulting
// Program is independent of batch geometry; Bind turns it into an Engine.
func CompileProgram(net *Network) (*Program, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: CompileInference: nil network")
	}
	if net.InputDim <= 0 {
		return nil, fmt.Errorf("nn: CompileInference: network input dim %d is not statically known", net.InputDim)
	}
	b := &programBuilder{}
	b.slotRows = append(b.slotRows, net.InputDim) // slot 0: the input
	out, rows, err := b.seq(net.Layers, 0, net.InputDim, "layers")
	if err != nil {
		return nil, err
	}
	return &Program{
		InDim:    net.InputDim,
		OutDim:   rows,
		Out:      out,
		SlotRows: b.slotRows,
		Ops:      b.ops,
	}, nil
}

// seq compiles a layer sequence reading from arena slot in with rows
// features; it returns the slot and feature count of the sequence output.
// path annotates errors like Spec.Validate does. An Activation directly
// following a fusable op is folded into that op's write loop (the
// peephole the golden program dumps make reviewable); the folded
// activation still consumes its pre-order layer index.
func (b *programBuilder) seq(layers []Layer, in, rows int, path string) (int, int, error) {
	cur, curRows := in, rows
	for i := 0; i < len(layers); i++ {
		l := layers[i]
		fuse := false
		if i+1 < len(layers) && fusableWithAct(l) {
			if _, ok := layers[i+1].(*Activation); ok {
				fuse = true
			}
		}
		var err error
		cur, curRows, err = b.layer(l, cur, curRows, fmt.Sprintf("%s[%d]", path, i))
		if err != nil {
			return 0, 0, err
		}
		if fuse {
			// The fused activation is layers[i+1], appended to the flatten
			// order after l's entire subtree — which b.layer just consumed —
			// so its index is simply the next one.
			b.ops[len(b.ops)-1].Act = b.layerIdx()
			i++
		}
	}
	return cur, curRows, nil
}

func (b *programBuilder) layer(l Layer, in, rows int, path string) (int, int, error) {
	idx := b.layerIdx()
	mismatch := func(name string, want int) error {
		return fmt.Errorf("nn: CompileInference: %s (%s): input dim %d does not chain, layer wants %d", path, name, rows, want)
	}
	simple := func(kind OpKind, outRows int) (int, int, error) {
		out := b.alloc(outRows)
		b.emit(ProgOp{Kind: kind, Layer: idx, Act: -1, In: int32(in), Aux: -1, Out: int32(out)})
		return out, outRows, nil
	}
	switch t := l.(type) {
	case *Dense:
		if rows != t.In {
			return 0, 0, mismatch(t.name, t.In)
		}
		return simple(OpDense, t.Out)
	case *Conv2D:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpConv, t.OutC*t.OutH()*t.OutW())
	case *Activation:
		return simple(OpAct, rows)
	case *RoundLayer:
		return simple(OpRound, rows)
	case *MaxPool2D:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpMaxPool, t.OutDim())
	case *AvgPool2D:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpAvgPool, t.OutDim())
	case *GlobalAvgPool:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpGAP, t.OutDim())
	case *Upsample2D:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpUpsample, t.OutDim())
	case *BatchNorm2D:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpBatchNorm, rows)
	case *SelfAttention:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		return simple(OpAttention, t.InDim())
	case *Residual:
		fOut, fRows, err := b.seq(t.Branch, in, rows, path+".branch")
		if err != nil {
			return 0, 0, err
		}
		sOut, sRows := in, rows
		if len(t.Shortcut) > 0 {
			sOut, sRows, err = b.seq(t.Shortcut, in, rows, path+".shortcut")
			if err != nil {
				return 0, 0, err
			}
		}
		if fRows != sRows {
			return 0, 0, fmt.Errorf("nn: CompileInference: %s (%s): branch output %d != shortcut output %d", path, t.name, fRows, sRows)
		}
		out := b.alloc(fRows)
		b.emit(ProgOp{Kind: OpAdd, Layer: idx, Act: -1, In: int32(fOut), Aux: int32(sOut), Out: int32(out)})
		return out, fRows, nil
	case *SkipConcat:
		if rows != t.InDim() {
			return 0, 0, mismatch(t.name, t.InDim())
		}
		bOut, bRows, err := b.seq(t.Branch, in, rows, path+".branch")
		if err != nil {
			return 0, 0, err
		}
		if want := t.BC * t.H * t.W; bRows != want {
			return 0, 0, fmt.Errorf("nn: CompileInference: %s (%s): branch produced %d rows, want %d", path, t.name, bRows, want)
		}
		out := b.alloc(t.OutDim())
		b.emit(ProgOp{Kind: OpConcat, Layer: idx, Act: -1, In: int32(in), Aux: int32(bOut), Out: int32(out)})
		return out, t.OutDim(), nil
	}
	return 0, 0, fmt.Errorf("nn: CompileInference: %s: unsupported layer type %T (%s)", path, l, l.Name())
}

// Bind resolves the program against net and materializes a runnable
// Engine with buffers for maxBatch-column inputs. Every op is validated
// against the layer it references — index range, layer type, slot
// shapes — so a program compiled from one network cannot silently bind
// to a structurally different one; a mismatch is a typed error, never a
// wrong answer.
//
// lanes must be 1: the engine runs one op program on the caller's
// goroutine. The argument remains only because existing callers pass it;
// any other value is refused.
func (p *Program) Bind(net *Network, maxBatch, lanes int) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: Program.Bind: nil network")
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("nn: Program.Bind: maxBatch %d must be positive", maxBatch)
	}
	if lanes != 1 {
		return nil, fmt.Errorf("nn: Program.Bind: lanes %d: the engine runs exactly 1", lanes)
	}
	if p.InDim != net.InputDim {
		return nil, fmt.Errorf("nn: Program.Bind: program input dim %d != network input dim %d", p.InDim, net.InputDim)
	}
	if len(p.SlotRows) == 0 || p.SlotRows[0] != p.InDim {
		return nil, fmt.Errorf("nn: Program.Bind: slot 0 must hold the %d-feature input", p.InDim)
	}
	for i, r := range p.SlotRows {
		if r <= 0 {
			return nil, fmt.Errorf("nn: Program.Bind: slot %d has non-positive row count %d", i, r)
		}
	}
	if p.Out < 0 || p.Out >= len(p.SlotRows) || p.SlotRows[p.Out] != p.OutDim {
		return nil, fmt.Errorf("nn: Program.Bind: output slot %d inconsistent with output dim %d", p.Out, p.OutDim)
	}
	ops, err := p.bindOps(flattenLayers(net.Layers, nil), maxBatch)
	if err != nil {
		return nil, err
	}
	e := &Engine{inDim: p.InDim, outDim: p.OutDim, maxBatch: maxBatch, ops: ops, out: p.Out}
	// Slot 0 is bound to the caller's input by Forward. Every other slot
	// is a capped slice of one slab, so slot growth can never silently
	// overlap a neighbor.
	total := 0
	for _, r := range p.SlotRows[1:] {
		total += r * maxBatch
	}
	slab := make([]float64, total)
	e.bufs = make([]*tensor.Matrix, len(p.SlotRows))
	off := 0
	for i := 1; i < len(p.SlotRows); i++ {
		sz := p.SlotRows[i] * maxBatch
		e.bufs[i] = tensor.NewMatrixFrom(p.SlotRows[i], maxBatch, slab[off:off+sz:off+sz])
		off += sz
	}
	return e, nil
}

// bindOps builds the runnable op list, validating every program
// reference against the flattened layer list.
func (p *Program) bindOps(flat []Layer, maxBatch int) ([]inferOp, error) {
	nSlots := len(p.SlotRows)
	ops := make([]inferOp, 0, len(p.Ops))
	for i := range p.Ops {
		po := &p.Ops[i]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("nn: Program.Bind: op %d (%s): %s", i, po.Kind, fmt.Sprintf(format, args...))
		}
		slot := func(s int32, what string) (int, error) {
			if s < 0 || int(s) >= nSlots {
				return 0, fail("%s slot %d out of range (%d slots)", what, s, nSlots)
			}
			return int(s), nil
		}
		in, err := slot(po.In, "input")
		if err != nil {
			return nil, err
		}
		out, err := slot(po.Out, "output")
		if err != nil {
			return nil, err
		}
		aux := -1
		if po.Kind == OpAdd || po.Kind == OpConcat {
			if aux, err = slot(po.Aux, "aux input"); err != nil {
				return nil, err
			}
		}
		if po.Layer < 0 || int(po.Layer) >= len(flat) {
			return nil, fail("layer index %d out of range (%d layers)", po.Layer, len(flat))
		}
		l := flat[po.Layer]
		var act *Activation
		if po.Act >= 0 {
			if int(po.Act) >= len(flat) {
				return nil, fail("fused-activation index %d out of range (%d layers)", po.Act, len(flat))
			}
			a, ok := flat[po.Act].(*Activation)
			if !ok {
				return nil, fail("fused-activation index %d names a %T, not an activation", po.Act, flat[po.Act])
			}
			if !fusableWithAct(l) {
				return nil, fail("layer %T cannot carry a fused activation", l)
			}
			act = a
		}
		rowsOK := func(slotIdx, want int, what string) error {
			if p.SlotRows[slotIdx] != want {
				return fail("%s slot %d holds %d rows, layer %q wants %d", what, slotIdx, p.SlotRows[slotIdx], l.Name(), want)
			}
			return nil
		}
		mistyped := func(want string) error {
			return fail("layer index %d names a %T, want %s", po.Layer, l, want)
		}

		switch po.Kind {
		case OpDense:
			t, ok := l.(*Dense)
			if !ok {
				return nil, mistyped("*nn.Dense")
			}
			if err := rowsOK(in, t.In, "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.Out, "output"); err != nil {
				return nil, err
			}
			op := &opDense{l: t, in: in, out: out, act: act}
			if t.PSN {
				t.ensureSigma()
				op.w = tensor.NewMatrix(t.Out, t.In)
			} else {
				op.w = t.rawMatrix() // shared view of live weights
			}
			ops = append(ops, op)
		case OpConv:
			t, ok := l.(*Conv2D)
			if !ok {
				return nil, mistyped("*nn.Conv2D")
			}
			spatial := t.OutH() * t.OutW()
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutC*spatial, "output"); err != nil {
				return nil, err
			}
			op := &opConv{
				l:       t,
				in:      in,
				out:     out,
				act:     act,
				outC:    t.OutC,
				spatial: spatial,
				k2c:     t.InC * t.K * t.K,
				offs:    convTapOffsets(t),
				zeros:   make([]float64, maxBatch),
			}
			if t.PSN {
				t.ensureSigma()
				op.kw = tensor.NewMatrix(t.OutC, t.InC*t.K*t.K)
			} else {
				op.kw = t.rawMatrix()
			}
			ops = append(ops, op)
		case OpAct:
			t, ok := l.(*Activation)
			if !ok {
				return nil, mistyped("*nn.Activation")
			}
			if err := rowsOK(out, p.SlotRows[in], "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opAct{l: t, in: in, out: out})
		case OpRound:
			t, ok := l.(*RoundLayer)
			if !ok {
				return nil, mistyped("*nn.RoundLayer")
			}
			if err := rowsOK(out, p.SlotRows[in], "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opRound{l: t, in: in, out: out})
		case OpMaxPool:
			t, ok := l.(*MaxPool2D)
			if !ok {
				return nil, mistyped("*nn.MaxPool2D")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opMaxPool{l: t, in: in, out: out})
		case OpAvgPool:
			t, ok := l.(*AvgPool2D)
			if !ok {
				return nil, mistyped("*nn.AvgPool2D")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opAvgPool{l: t, in: in, out: out})
		case OpGAP:
			t, ok := l.(*GlobalAvgPool)
			if !ok {
				return nil, mistyped("*nn.GlobalAvgPool")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opGAP{l: t, in: in, out: out})
		case OpUpsample:
			t, ok := l.(*Upsample2D)
			if !ok {
				return nil, mistyped("*nn.Upsample2D")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opUpsample{l: t, in: in, out: out})
		case OpBatchNorm:
			t, ok := l.(*BatchNorm2D)
			if !ok {
				return nil, mistyped("*nn.BatchNorm2D")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.InDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opBatchNorm{l: t, in: in, out: out, act: act})
		case OpAttention:
			t, ok := l.(*SelfAttention)
			if !ok {
				return nil, mistyped("*nn.SelfAttention")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.InDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opAttention{
				l: t, in: in, out: out, act: act,
				// Shared views of the live projection weights.
				wq: tensor.NewMatrixFrom(t.D, t.D, t.Wq.Data),
				wk: tensor.NewMatrixFrom(t.D, t.D, t.Wk.Data),
				wv: tensor.NewMatrixFrom(t.D, t.D, t.Wv.Data),
				// Per-sample scratch; sizes are batch-independent.
				xs: tensor.NewMatrix(t.T, t.D), q: tensor.NewMatrix(t.T, t.D),
				k: tensor.NewMatrix(t.T, t.D), v: tensor.NewMatrix(t.T, t.D),
				kt: tensor.NewMatrix(t.D, t.T), scores: tensor.NewMatrix(t.T, t.T),
				scoresT: tensor.NewMatrix(t.T, t.T), aT: tensor.NewMatrix(t.T, t.T),
				a: tensor.NewMatrix(t.T, t.T), y: tensor.NewMatrix(t.T, t.D),
			})
		case OpAdd:
			if _, ok := l.(*Residual); !ok {
				return nil, mistyped("*nn.Residual")
			}
			if p.SlotRows[in] != p.SlotRows[aux] || p.SlotRows[in] != p.SlotRows[out] {
				return nil, fail("add over mismatched slot shapes %d + %d -> %d",
					p.SlotRows[in], p.SlotRows[aux], p.SlotRows[out])
			}
			ops = append(ops, &opAdd{a: in, b: aux, out: out, act: act})
		case OpConcat:
			t, ok := l.(*SkipConcat)
			if !ok {
				return nil, mistyped("*nn.SkipConcat")
			}
			if err := rowsOK(in, t.InDim(), "input"); err != nil {
				return nil, err
			}
			if err := rowsOK(aux, t.BC*t.H*t.W, "branch"); err != nil {
				return nil, err
			}
			if err := rowsOK(out, t.OutDim(), "output"); err != nil {
				return nil, err
			}
			ops = append(ops, &opConcat{xRows: t.InDim(), in: in, branch: aux, out: out})
		default:
			return nil, fail("unknown op kind")
		}
	}
	return ops, nil
}
