package nn

import (
	"fmt"
	"math"

	"github.com/scidata/errprop/internal/tensor"
)

// Engine is a compiled plan-once/execute-many inference program for a
// Network. CompileInference walks the layer graph once, performs static
// shape inference, fuses each activation into the preceding
// dense/conv/attention/batchnorm/residual op's write loop, and emits a
// flat op sequence over a preallocated buffer arena sized for maxBatch
// columns; Forward then replays the program with zero steady-state heap
// allocations using cache-blocked, register-tiled kernels
// (tensor.MulIntoBlocked and a fused implicit-im2col convolution).
//
// Two invariants make the engine safe to deploy under certified error
// bounds (DESIGN.md "Bit-identical fast paths"):
//
//   - Bit-identity: every op replicates the corresponding layer's
//     eval-mode Forward arithmetic exactly — for each output element the
//     same multiplications in the same ascending-k order, the same
//     zero-multiplicand skips, the same degenerate-case branches — so
//     Engine.Forward output is == (not merely close to) the legacy
//     Network.Forward output for any input. Blocking and fusion reorder
//     work only ACROSS independent output elements, never within one
//     element's reduction; Inequality (3) certificates computed against
//     the reference network therefore transfer to the engine verbatim.
//   - Shared weights: ops hold read-only views into the source network's
//     parameter storage (PSN layers get a private effective-weight
//     scratch recomputed per call from the live alpha/sigma state), so N
//     engines over one network cost no N-fold weight duplication, and a
//     weight update to the network is visible to every engine.
//
// An Engine is not safe for concurrent use (its arena and the ops'
// scratch are mutable state); compile one per goroutine — they are
// cheap, sharing all weights. Batches wider than maxBatch still work:
// the arena grows once to the new high-water mark (that growth
// allocates).
type Engine struct {
	inDim, outDim, maxBatch int

	// ops carry per-call scratch such as PSN effective weights and
	// attention workspaces. bufs is the arena: slot 0 is the caller's
	// input, bound per Forward call, and every other slot is a capped
	// slice of one slab allocation.
	ops  []inferOp
	bufs []*tensor.Matrix
	out  int // arena index of the network output
}

// inferOp is one step of the compiled program: read from arena slots,
// write to an arena slot, allocation-free at steady state.
type inferOp interface {
	run(e *Engine, batch int)
	// describe renders the op for compiled-program golden files: stable,
	// human-reviewable, one line.
	describe() string
}

// CompileInference compiles net into an inference engine with buffers
// sized for maxBatch-column inputs. It fails — rather than degrading to
// a slow path — if the network contains a layer type the compiler does
// not model or if the input dimension is not statically known.
//
// Compilation finalizes PSN spectral-norm estimates (ensureSigma), so a
// compiled engine's Forward never mutates the source network; multiple
// engines may share one network across goroutines.
func CompileInference(net *Network, maxBatch int) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: CompileInference: nil network")
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("nn: CompileInference: maxBatch %d must be positive", maxBatch)
	}
	if net.InputDim <= 0 {
		return nil, fmt.Errorf("nn: CompileInference: network input dim %d is not statically known", net.InputDim)
	}
	p, err := CompileProgram(net)
	if err != nil {
		return nil, err
	}
	return p.Bind(net, maxBatch, 1)
}

// Forward executes the compiled program on a (features x batch) matrix.
// x is read, never written. The returned matrix is owned by the engine
// and valid only until the next Forward call; clone it to retain. Output
// is bit-identical to Network.Forward(x, false) on the source network.
//
//errprop:deterministic compiled plan replays the exact float schedule of the source network
func (e *Engine) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Rows != e.inDim {
		panic(fmt.Sprintf("nn: engine input rows %d != %d", x.Rows, e.inDim))
	}
	batch := x.Cols
	e.bufs[0] = x
	for _, op := range e.ops {
		op.run(e, batch)
	}
	return e.bufs[e.out]
}

// InputDim returns the engine's flattened input feature count.
func (e *Engine) InputDim() int { return e.inDim }

// OutputDim returns the engine's flattened output feature count,
// computed by static shape inference at compile time — no data probe.
func (e *Engine) OutputDim() int { return e.outDim }

// MaxBatch returns the batch width the arena was preallocated for.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// Program renders the compiled op sequence, one op per line — the
// engine's auditable execution plan. Fusion decisions show up here, and
// the golden-program regression tests pin these dumps so a compiler
// change is a reviewable diff.
func (e *Engine) Program() []string {
	out := make([]string, len(e.ops))
	for i, op := range e.ops {
		out[i] = op.describe()
	}
	return out
}

// fusableWithAct reports whether the compiler can fold a following
// Activation into the op it emits for l. Folding is safe exactly when
// the op applies the activation to each output element after that
// element's full sum (and bias) — the same value the standalone
// activation pass would see — and the pre-activation slot has no other
// reader, which holds by construction inside a layer sequence.
func fusableWithAct(l Layer) bool {
	switch l.(type) {
	case *Dense, *Conv2D, *SelfAttention, *BatchNorm2D, *Residual:
		return true
	}
	return false
}

// ensure resizes arena slot i to rows x batch (reusing the preallocated
// backing at steady state) and returns it.
func (e *Engine) ensure(i, rows, batch int) *tensor.Matrix {
	m := tensor.EnsureMatrix(e.bufs[i], rows, batch)
	e.bufs[i] = m
	return m
}

// reluv replicates Activation.apply's ActReLU arm exactly (same branch,
// same literal +0 for non-positive inputs). It exists because apply — a
// method dispatching on kind — is too large to inline, and a per-element
// call in the fused write loops costs ~20% of a conv forward; reluv
// inlines to a compare-and-select. Ops check isReLU once per call and
// take the specialized loop.
func reluv(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// isReLU reports whether the fused activation is ReLU (nil-safe).
func (a *Activation) isReLU() bool { return a != nil && a.kind == ActReLU }

// fusedActName labels a folded activation in program dumps.
func fusedActName(a *Activation) string {
	if a == nil {
		return "none"
	}
	return a.kind
}

// opDense replicates Dense.Forward's eval path: w is the shared raw
// weight view for plain layers; under PSN it is a private scratch
// refreshed from the live alpha/sigma state each call, matching
// EffectiveMatrix (including the degenerate sigma == 0 raw-copy branch).
// The matmul runs on the blocked kernel (bit-identical to MulInto); the
// bias — and any fused activation — is applied in the write loop that
// follows, once per element, after that element's full sum.
type opDense struct {
	l       *Dense
	w       *tensor.Matrix
	act     *Activation
	in, out int
}

func (o *opDense) run(e *Engine, batch int) {
	d := o.l
	if d.PSN {
		if d.sigmaRaw == 0 {
			copy(o.w.Data, d.W.Data)
		} else {
			s := d.Alpha.Data[0] / d.sigmaRaw
			for i, w := range d.W.Data {
				o.w.Data[i] = w * s
			}
		}
	}
	x := e.bufs[o.in]
	out := e.ensure(o.out, d.Out, batch)
	out = o.w.MulIntoBlocked(x, out)
	e.bufs[o.out] = out
	if o.act != nil {
		for r := 0; r < out.Rows; r++ {
			b := d.B.Data[r]
			row := out.Data[r*out.Cols : (r+1)*out.Cols]
			for c := range row {
				row[c] = o.act.apply(row[c] + b)
			}
		}
		return
	}
	for r := 0; r < out.Rows; r++ {
		b := d.B.Data[r]
		row := out.Data[r*out.Cols : (r+1)*out.Cols]
		for c := range row {
			row[c] += b
		}
	}
}

func (o *opDense) describe() string {
	return fmt.Sprintf("dense %s: s%d -> s%d (%d->%d) psn=%t act=%s",
		o.l.name, o.in, o.out, o.l.In, o.l.Out, o.l.PSN, fusedActName(o.act))
}

// convTapOffsets precomputes, for every output position s and kernel tap
// k (in the kw column order (ch*K+ky)*K+kx), the input feature row the
// tap reads — or -1 for a padded tap. The conv kernel then needs no
// bounds logic in its inner loops.
func convTapOffsets(c *Conv2D) []int32 {
	outH, outW := c.OutH(), c.OutW()
	offs := make([]int32, outH*outW*c.InC*c.K*c.K)
	i := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ch := 0; ch < c.InC; ch++ {
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride - c.Pad + ky
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride - c.Pad + kx
						if iy < 0 || iy >= c.H || ix < 0 || ix >= c.W {
							offs[i] = -1
						} else {
							offs[i] = int32((ch*c.H+iy)*c.W + ix)
						}
						i++
					}
				}
			}
		}
	}
	return offs
}

// opConv is the fused implicit-im2col convolution: instead of
// materializing the im2col matrix and multiplying, it computes each
// output element's kw-row-dot-column directly from the input using the
// precomputed tap offsets, in a 2x4 (output channel x batch) register
// tile. Bit-identity with Conv2D.Forward's Im2Col + Mul, per output
// element: the k loop visits taps in the identical ascending (ch,ky,kx)
// order; kw[oc][k] == 0 skips the tap exactly like Mul's
// zero-multiplicand skip; and padded taps multiply a loaded 0.0 from the
// zeros buffer — the same `+= a*0` the materialized path performs — so
// even sign-of-zero effects match. Bias (and any fused activation) is
// applied at the register-tile store, after the element's full sum, and
// the output is written directly in the engine's feature-major layout —
// no cols buffer, no z buffer, no separate layout or activation pass.
type opConv struct {
	l       *Conv2D
	kw      *tensor.Matrix
	act     *Activation
	offs    []int32
	zeros   []float64 // all-zero row standing in for padded taps
	outC    int
	spatial int
	k2c     int
	in, out int
}

func (o *opConv) run(e *Engine, batch int) {
	c := o.l
	if c.PSN {
		if c.sigmaRaw == 0 {
			copy(o.kw.Data, c.Wt.Data)
		} else {
			s := c.Alpha.Data[0] / c.sigmaRaw
			for i, w := range c.Wt.Data {
				o.kw.Data[i] = w * s
			}
		}
	}
	x := e.bufs[o.in]
	out := e.ensure(o.out, o.outC*o.spatial, batch)
	if batch > len(o.zeros) {
		o.zeros = make([]float64, batch) // arena growth past maxBatch
	}
	o.convApply(x, out, batch)
}

// convApply is the kernel body; see the opConv doc for the bit-identity
// argument.
func (o *opConv) convApply(x, out *tensor.Matrix, batch int) {
	// Hoist every struct-field and matrix-header load into locals: the
	// inner k loop must not re-read through pointers the compiler cannot
	// prove unaliased with the output writes.
	kw := o.kw.Data
	bias := o.l.B.Data
	k2c, spatial, outC := o.k2c, o.spatial, o.outC
	offs, zeros, xd := o.offs, o.zeros, x.Data
	act := o.act
	relu := act.isReLU()
	for s := 0; s < spatial; s++ {
		tab := offs[s*k2c : (s+1)*k2c]
		oc := 0
		for ; oc+2 <= outC; oc += 2 {
			r0 := kw[oc*k2c : (oc+1)*k2c]
			r1 := kw[(oc+1)*k2c : (oc+2)*k2c]
			o0 := out.Data[(oc*spatial+s)*batch : (oc*spatial+s)*batch+batch]
			o1 := out.Data[((oc+1)*spatial+s)*batch : ((oc+1)*spatial+s)*batch+batch]
			b0, b1 := bias[oc], bias[oc+1]
			n := 0
			for ; n+4 <= batch; n += 4 {
				var a00, a01, a02, a03 float64
				var a10, a11, a12, a13 float64
				for k := 0; k < k2c; k++ {
					xb := zeros[:4:4]
					if f := tab[k]; f >= 0 {
						base := int(f)*batch + n
						xb = xd[base : base+4 : base+4]
					}
					if a := r0[k]; a != 0 {
						a00 += a * xb[0]
						a01 += a * xb[1]
						a02 += a * xb[2]
						a03 += a * xb[3]
					}
					if a := r1[k]; a != 0 {
						a10 += a * xb[0]
						a11 += a * xb[1]
						a12 += a * xb[2]
						a13 += a * xb[3]
					}
				}
				if relu {
					o0[n] = reluv(a00 + b0)
					o0[n+1] = reluv(a01 + b0)
					o0[n+2] = reluv(a02 + b0)
					o0[n+3] = reluv(a03 + b0)
					o1[n] = reluv(a10 + b1)
					o1[n+1] = reluv(a11 + b1)
					o1[n+2] = reluv(a12 + b1)
					o1[n+3] = reluv(a13 + b1)
				} else if act != nil {
					o0[n] = act.apply(a00 + b0)
					o0[n+1] = act.apply(a01 + b0)
					o0[n+2] = act.apply(a02 + b0)
					o0[n+3] = act.apply(a03 + b0)
					o1[n] = act.apply(a10 + b1)
					o1[n+1] = act.apply(a11 + b1)
					o1[n+2] = act.apply(a12 + b1)
					o1[n+3] = act.apply(a13 + b1)
				} else {
					o0[n] = a00 + b0
					o0[n+1] = a01 + b0
					o0[n+2] = a02 + b0
					o0[n+3] = a03 + b0
					o1[n] = a10 + b1
					o1[n+1] = a11 + b1
					o1[n+2] = a12 + b1
					o1[n+3] = a13 + b1
				}
			}
			for ; n < batch; n++ {
				var s0, s1 float64
				for k := 0; k < k2c; k++ {
					var xv float64
					if f := tab[k]; f >= 0 {
						xv = xd[int(f)*batch+n]
					}
					if a := r0[k]; a != 0 {
						s0 += a * xv
					}
					if a := r1[k]; a != 0 {
						s1 += a * xv
					}
				}
				if relu {
					o0[n] = reluv(s0 + b0)
					o1[n] = reluv(s1 + b1)
				} else if act != nil {
					o0[n] = act.apply(s0 + b0)
					o1[n] = act.apply(s1 + b1)
				} else {
					o0[n] = s0 + b0
					o1[n] = s1 + b1
				}
			}
		}
		for ; oc < outC; oc++ {
			r0 := kw[oc*k2c : (oc+1)*k2c]
			o0 := out.Data[(oc*spatial+s)*batch : (oc*spatial+s)*batch+batch]
			b0 := bias[oc]
			for n := 0; n < batch; n++ {
				var s0 float64
				for k := 0; k < k2c; k++ {
					var xv float64
					if f := tab[k]; f >= 0 {
						xv = xd[int(f)*batch+n]
					}
					if a := r0[k]; a != 0 {
						s0 += a * xv
					}
				}
				if relu {
					o0[n] = reluv(s0 + b0)
				} else if act != nil {
					o0[n] = act.apply(s0 + b0)
				} else {
					o0[n] = s0 + b0
				}
			}
		}
	}
}

func (o *opConv) describe() string {
	c := o.l
	return fmt.Sprintf("conv %s: s%d -> s%d (%dx%dx%d k=%d stride=%d pad=%d -> %dx%dx%d) psn=%t act=%s",
		c.name, o.in, o.out, c.InC, c.H, c.W, c.K, c.Stride, c.Pad,
		c.OutC, c.OutH(), c.OutW(), c.PSN, fusedActName(o.act))
}

// opAct applies the activation elementwise via the same apply switch the
// legacy path uses. It remains in compiled programs only where fusion
// does not apply (activation first in a sequence or after a
// non-fusable op).
type opAct struct {
	l       *Activation
	in, out int
}

func (o *opAct) run(e *Engine, batch int) {
	x := e.bufs[o.in]
	out := e.ensure(o.out, x.Rows, batch)
	for i, v := range x.Data {
		out.Data[i] = o.l.apply(v)
	}
}

func (o *opAct) describe() string {
	return fmt.Sprintf("act %s: s%d -> s%d", o.l.kind, o.in, o.out)
}

// opRound applies activation-format rounding elementwise.
type opRound struct {
	l       *RoundLayer
	in, out int
}

func (o *opRound) run(e *Engine, batch int) {
	x := e.bufs[o.in]
	out := e.ensure(o.out, x.Rows, batch)
	for i, v := range x.Data {
		out.Data[i] = o.l.Format.Round(v)
	}
}

func (o *opRound) describe() string {
	return fmt.Sprintf("round %s: s%d -> s%d format=%s", o.l.name, o.in, o.out, o.l.Format)
}

// opMaxPool replicates MaxPool2D.Forward (strict > keeps the same argmax
// tie-breaking, though only the max value is emitted here).
type opMaxPool struct {
	l       *MaxPool2D
	in, out int
}

func (o *opMaxPool) run(e *Engine, batch int) {
	p := o.l
	x := e.bufs[o.in]
	oh, ow := p.OutH(), p.OutW()
	out := e.ensure(o.out, p.C*oh*ow, batch)
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := ((c*oh+oy)*ow + ox) * batch
				for n := 0; n < batch; n++ {
					best := math.Inf(-1)
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							f := (c*p.H+oy*p.K+ky)*p.W + ox*p.K + kx
							if v := x.Data[f*batch+n]; v > best {
								best = v
							}
						}
					}
					out.Data[dst+n] = best
				}
			}
		}
	}
}

func (o *opMaxPool) describe() string {
	return fmt.Sprintf("maxpool %s: s%d -> s%d k=%d", o.l.name, o.in, o.out, o.l.K)
}

// opAvgPool replicates AvgPool2D.Forward (same accumulation order, same
// multiply-by-reciprocal).
type opAvgPool struct {
	l       *AvgPool2D
	in, out int
}

func (o *opAvgPool) run(e *Engine, batch int) {
	p := o.l
	x := e.bufs[o.in]
	oh, ow := p.OutH(), p.OutW()
	out := e.ensure(o.out, p.C*oh*ow, batch)
	inv := 1 / float64(p.K*p.K)
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := ((c*oh+oy)*ow + ox) * batch
				for n := 0; n < batch; n++ {
					var s float64
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							f := (c*p.H+oy*p.K+ky)*p.W + ox*p.K + kx
							s += x.Data[f*batch+n]
						}
					}
					out.Data[dst+n] = s * inv
				}
			}
		}
	}
}

func (o *opAvgPool) describe() string {
	return fmt.Sprintf("avgpool %s: s%d -> s%d k=%d", o.l.name, o.in, o.out, o.l.K)
}

// opGAP replicates GlobalAvgPool.Forward.
type opGAP struct {
	l       *GlobalAvgPool
	in, out int
}

func (o *opGAP) run(e *Engine, batch int) {
	p := o.l
	x := e.bufs[o.in]
	spatial := p.H * p.W
	inv := 1 / float64(spatial)
	out := e.ensure(o.out, p.C, batch)
	for c := 0; c < p.C; c++ {
		for n := 0; n < batch; n++ {
			var s float64
			for sp := 0; sp < spatial; sp++ {
				s += x.Data[(c*spatial+sp)*batch+n]
			}
			out.Data[c*batch+n] = s * inv
		}
	}
}

func (o *opGAP) describe() string {
	return fmt.Sprintf("gap %s: s%d -> s%d", o.l.name, o.in, o.out)
}

// opUpsample replicates Upsample2D.Forward (pure copies).
type opUpsample struct {
	l       *Upsample2D
	in, out int
}

func (o *opUpsample) run(e *Engine, batch int) {
	u := o.l
	x := e.bufs[o.in]
	oh, ow := 2*u.H, 2*u.W
	out := e.ensure(o.out, u.C*oh*ow, batch)
	for c := 0; c < u.C; c++ {
		for y := 0; y < u.H; y++ {
			for xx := 0; xx < u.W; xx++ {
				src := (c*u.H+y)*u.W + xx
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						dst := (c*oh+2*y+dy)*ow + 2*xx + dx
						copy(out.Data[dst*batch:(dst+1)*batch], x.Data[src*batch:(src+1)*batch])
					}
				}
			}
		}
	}
}

func (o *opUpsample) describe() string {
	return fmt.Sprintf("upsample %s: s%d -> s%d", o.l.name, o.in, o.out)
}

// opBatchNorm replicates BatchNorm2D.Forward's eval branch (frozen
// running statistics), with any fused activation applied per element
// after the affine transform — the identical value the standalone pass
// would compute.
type opBatchNorm struct {
	l       *BatchNorm2D
	act     *Activation
	in, out int
}

func (o *opBatchNorm) run(e *Engine, batch int) {
	bn := o.l
	x := e.bufs[o.in]
	spatial := bn.H * bn.W
	out := e.ensure(o.out, x.Rows, batch)
	for c := 0; c < bn.C; c++ {
		mean := bn.RunMean.Data[c]
		varv := bn.RunVar.Data[c]
		inv := 1 / math.Sqrt(varv+bn.Eps)
		g, b := bn.Gamma.Data[c], bn.Beta.Data[c]
		for s := 0; s < spatial; s++ {
			base := (c*spatial + s) * batch
			switch {
			case o.act.isReLU():
				for n := 0; n < batch; n++ {
					xh := (x.Data[base+n] - mean) * inv
					out.Data[base+n] = reluv(g*xh + b)
				}
			case o.act != nil:
				for n := 0; n < batch; n++ {
					xh := (x.Data[base+n] - mean) * inv
					out.Data[base+n] = o.act.apply(g*xh + b)
				}
			default:
				for n := 0; n < batch; n++ {
					xh := (x.Data[base+n] - mean) * inv
					out.Data[base+n] = g*xh + b
				}
			}
		}
	}
}

func (o *opBatchNorm) describe() string {
	return fmt.Sprintf("batchnorm %s: s%d -> s%d act=%s", o.l.name, o.in, o.out, fusedActName(o.act))
}

// opAttention replicates SelfAttention.Forward per sample using shared
// projection-weight views and preallocated T x D / T x T scratch. The
// transposes the legacy path materializes (k.T(), scores.T(), a = ...T())
// become TInto copies, Softmax becomes softmaxInto, and the matmuls run
// on the blocked kernel — pure data movements / bit-identical
// arithmetic. A fused activation is applied in the per-sample unpack
// loop, per element after its value is final.
type opAttention struct {
	l          *SelfAttention
	wq, wk, wv *tensor.Matrix
	act        *Activation

	xs, q, k, v         *tensor.Matrix
	kt, scores, scoresT *tensor.Matrix
	aT, a, y            *tensor.Matrix
	in, out             int
}

func (o *opAttention) run(e *Engine, batch int) {
	s := o.l
	x := e.bufs[o.in]
	out := e.ensure(o.out, s.InDim(), batch)
	invSqrtD := 1 / math.Sqrt(float64(s.D))
	for n := 0; n < batch; n++ {
		for t := 0; t < s.T; t++ {
			for d := 0; d < s.D; d++ {
				o.xs.Set(t, d, x.At(t*s.D+d, n))
			}
		}
		o.q = o.xs.MulIntoBlocked(o.wq, o.q)
		o.k = o.xs.MulIntoBlocked(o.wk, o.k)
		o.v = o.xs.MulIntoBlocked(o.wv, o.v)
		o.kt = o.k.TInto(o.kt)
		o.scores = o.q.MulIntoBlocked(o.kt, o.scores)
		o.scores.Scale(invSqrtD)
		o.scoresT = o.scores.TInto(o.scoresT)
		o.aT = softmaxInto(o.scoresT, o.aT)
		o.a = o.aT.TInto(o.a)
		o.y = o.a.MulIntoBlocked(o.v, o.y)
		if o.act != nil {
			for t := 0; t < s.T; t++ {
				for d := 0; d < s.D; d++ {
					out.Set(t*s.D+d, n, o.act.apply(o.y.At(t, d)))
				}
			}
		} else {
			for t := 0; t < s.T; t++ {
				for d := 0; d < s.D; d++ {
					out.Set(t*s.D+d, n, o.y.At(t, d))
				}
			}
		}
	}
}

func (o *opAttention) describe() string {
	return fmt.Sprintf("attention %s: s%d -> s%d (T=%d D=%d) act=%s",
		o.l.name, o.in, o.out, o.l.T, o.l.D, fusedActName(o.act))
}

// softmaxInto is Softmax writing into dst: identical per-column
// max-subtract / exp-accumulate / multiply-by-reciprocal arithmetic.
func softmaxInto(logits, dst *tensor.Matrix) *tensor.Matrix {
	dst = tensor.EnsureMatrix(dst, logits.Rows, logits.Cols)
	for c := 0; c < logits.Cols; c++ {
		maxv := math.Inf(-1)
		for r := 0; r < logits.Rows; r++ {
			if v := logits.At(r, c); v > maxv {
				maxv = v
			}
		}
		var sum float64
		for r := 0; r < logits.Rows; r++ {
			e := math.Exp(logits.At(r, c) - maxv)
			dst.Set(r, c, e)
			sum += e
		}
		inv := 1 / sum
		for r := 0; r < logits.Rows; r++ {
			dst.Set(r, c, dst.At(r, c)*inv)
		}
	}
	return dst
}

// opAdd is the residual join y = F(x) + S(x), matching Matrix.Add's
// elementwise sums, with any fused activation applied to each element's
// final sum.
type opAdd struct {
	act       *Activation
	a, b, out int
}

func (o *opAdd) run(e *Engine, batch int) {
	a, b := e.bufs[o.a], e.bufs[o.b]
	out := e.ensure(o.out, a.Rows, batch)
	switch {
	case o.act.isReLU():
		for i := range a.Data {
			out.Data[i] = reluv(a.Data[i] + b.Data[i])
		}
	case o.act != nil:
		for i := range a.Data {
			out.Data[i] = o.act.apply(a.Data[i] + b.Data[i])
		}
	default:
		for i := range a.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	}
}

func (o *opAdd) describe() string {
	return fmt.Sprintf("add: s%d + s%d -> s%d act=%s", o.a, o.b, o.out, fusedActName(o.act))
}

// opConcat is the U-Net skip join y = concat(x, Branch(x)), matching
// SkipConcat.Forward's two copies.
type opConcat struct {
	xRows           int
	in, branch, out int
}

func (o *opConcat) run(e *Engine, batch int) {
	x, br := e.bufs[o.in], e.bufs[o.branch]
	out := e.ensure(o.out, o.xRows+br.Rows, batch)
	copy(out.Data[:o.xRows*batch], x.Data)
	copy(out.Data[o.xRows*batch:], br.Data)
}

func (o *opConcat) describe() string {
	return fmt.Sprintf("concat: s%d | s%d -> s%d", o.in, o.branch, o.out)
}
