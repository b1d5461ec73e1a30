package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/scidata/errprop/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs flattened into the
// (features x batch) matrix convention (feature index = (c*H+h)*W+w).
// Like Dense it supports the PSN reparameterization; sigma here is the
// spectral norm of the *convolution operator* (estimated by power
// iteration through the operator and its adjoint), so under PSN the
// whole conv layer has operator norm exactly |alpha|.
type Conv2D struct {
	InC, H, W            int // input geometry
	OutC, K, Stride, Pad int
	Wt                   *Param // OutC x (InC*K*K)
	B                    *Param // OutC
	PSN                  bool
	Alpha                *Param

	sigmaRaw    float64
	sigmaOK     bool
	sigmaFrozen bool          // per-forward stepping disabled (see Network.SetSigmaStepping)
	vop         tensor.Vector // warm-start vector for operator power iteration

	inCols *tensor.Matrix // cached im2col for backward
	batch  int
	effW   *tensor.Matrix

	// Scratch reused across train-mode steps (see Dense).
	effWBuf, zBuf, outBuf, dzBuf, dEffBuf, dcolsBuf *tensor.Matrix

	name string
}

// NewConv2D builds a conv layer for a fixed input geometry.
func NewConv2D(name string, inC, h, w, outC, k, stride, pad int, psn bool, rng *rand.Rand) *Conv2D {
	c := &Conv2D{InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad, PSN: psn, name: name}
	c.Wt = NewParam(name+".W", outC*inC*k*k)
	c.B = NewParam(name+".B", outC)
	initKaiming(c.Wt.Data, inC*k*k, rng)
	if psn {
		c.RefreshSigma()
		c.Alpha = NewParam(name+".alpha", 1)
		c.Alpha.Data[0] = c.sigmaRaw
	}
	return c
}

// NewConv2DFromWeights wraps explicit kernel weights into a plain conv
// layer (quantized inference copies).
func NewConv2DFromWeights(name string, inC, h, w, outC, k, stride, pad int, wt, b []float64) *Conv2D {
	if len(wt) != outC*inC*k*k || len(b) != outC {
		panic("nn: NewConv2DFromWeights shape mismatch")
	}
	c := &Conv2D{InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad, name: name}
	c.Wt = &Param{Name: name + ".W", Data: wt, Grad: make([]float64, len(wt))}
	c.B = &Param{Name: name + ".B", Data: b, Grad: make([]float64, len(b))}
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return tensor.ConvOutSize(c.H, c.K, c.Stride, c.Pad) }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return tensor.ConvOutSize(c.W, c.K, c.Stride, c.Pad) }

// InDim returns the flattened input feature count.
func (c *Conv2D) InDim() int { return c.InC * c.H * c.W }

// OutDim returns the flattened output feature count.
func (c *Conv2D) OutDim() int { return c.OutC * c.OutH() * c.OutW() }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

func (c *Conv2D) rawMatrix() *tensor.Matrix {
	return tensor.NewMatrixFrom(c.OutC, c.InC*c.K*c.K, c.Wt.Data)
}

// applyOp applies the (bias-free) convolution operator with kernel kw to a
// single flattened input vector.
func (c *Conv2D) applyOp(kw *tensor.Matrix, x tensor.Vector) tensor.Vector {
	t := tensor.NewT4From(1, c.InC, c.H, c.W, x)
	cols := tensor.Im2Col(t, c.K, c.K, c.Stride, c.Pad)
	z := kw.Mul(cols) // OutC x (outH*outW)
	return tensor.Vector(z.Data)
}

// applyAdjoint applies the operator's adjoint to a flattened output vector.
func (c *Conv2D) applyAdjoint(kw *tensor.Matrix, y tensor.Vector) tensor.Vector {
	z := tensor.NewMatrixFrom(c.OutC, c.OutH()*c.OutW(), y)
	cols := kw.T().Mul(z)
	t := tensor.Col2Im(cols, 1, c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad)
	return tensor.Vector(t.Data)
}

// operatorSigma estimates the conv operator's spectral norm by power
// iteration through applyOp / applyAdjoint.
func (c *Conv2D) operatorSigma(kw *tensor.Matrix, iters int) float64 {
	n := c.InDim()
	v := c.vop
	if len(v) != n {
		//lint:ignore unseededrand fixed-seed start direction keeps power iteration deterministic; any non-orthogonal direction works
		rng := rand.New(rand.NewSource(7))
		v = make(tensor.Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	if v.Normalize() == 0 {
		v[0] = 1
	}
	var sigma float64
	for k := 0; k < iters; k++ {
		u := c.applyOp(kw, v)
		if u.Normalize() == 0 {
			c.vop = v
			return 0
		}
		v = c.applyAdjoint(kw, u)
		sigma = v.Normalize()
		if sigma == 0 {
			c.vop = v
			return 0
		}
	}
	c.vop = v
	return sigma
}

// RefreshSigma recomputes the operator norm from scratch. 120 iterations
// keep independent runs (e.g. a saved model reloaded cold) within ~1e-6
// of each other even when the top singular values cluster.
func (c *Conv2D) RefreshSigma() {
	c.sigmaRaw = c.operatorSigma(c.rawMatrix(), 120)
	c.sigmaOK = true
}

// ensureSigma computes the operator norm if no fresh estimate exists.
func (c *Conv2D) ensureSigma() {
	if !c.sigmaOK {
		c.RefreshSigma()
	}
}

func (c *Conv2D) stepSigma() {
	c.sigmaRaw = c.operatorSigma(c.rawMatrix(), 2)
	c.sigmaOK = true
}

// EffectiveKernel returns the kernel matrix actually applied (PSN-scaled
// when enabled).
func (c *Conv2D) EffectiveKernel() *tensor.Matrix {
	if !c.PSN {
		return c.rawMatrix()
	}
	c.ensureSigma()
	if c.sigmaRaw == 0 {
		return c.rawMatrix().Clone()
	}
	s := c.Alpha.Data[0] / c.sigmaRaw
	out := tensor.NewMatrix(c.OutC, c.InC*c.K*c.K)
	for i, w := range c.Wt.Data {
		out.Data[i] = w * s
	}
	return out
}

// matToT4 reshapes a (C*H*W x batch) matrix into an NCHW tensor.
func matToT4(x *tensor.Matrix, ch, h, w int) *tensor.T4 {
	batch := x.Cols
	t := tensor.NewT4(batch, ch, h, w)
	feat := ch * h * w
	for n := 0; n < batch; n++ {
		dst := t.Data[n*feat : (n+1)*feat]
		for f := 0; f < feat; f++ {
			dst[f] = x.Data[f*batch+n]
		}
	}
	return t
}

// t4ToMat reshapes an NCHW tensor into a (C*H*W x batch) matrix.
func t4ToMat(t *tensor.T4) *tensor.Matrix {
	feat := t.C * t.H * t.W
	m := tensor.NewMatrix(feat, t.N)
	for n := 0; n < t.N; n++ {
		src := t.Data[n*feat : (n+1)*feat]
		for f := 0; f < feat; f++ {
			m.Data[f*t.N+n] = src[f]
		}
	}
	return m
}

// effectiveKernelInto is EffectiveKernel writing into a reusable scratch
// buffer (train path). Non-PSN layers return the shared raw view.
func (c *Conv2D) effectiveKernelInto(dst *tensor.Matrix) *tensor.Matrix {
	if !c.PSN {
		return c.rawMatrix()
	}
	c.ensureSigma()
	if c.sigmaRaw == 0 {
		return dst.CopyFrom(c.rawMatrix())
	}
	s := c.Alpha.Data[0] / c.sigmaRaw
	dst = tensor.EnsureMatrix(dst, c.OutC, c.InC*c.K*c.K)
	for i, w := range c.Wt.Data {
		dst.Data[i] = w * s
	}
	return dst
}

// Forward implements Layer. As with Dense, the train path reuses
// layer-owned scratch; the returned matrix is valid until the next
// train-mode Forward on this layer.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Rows != c.InDim() {
		panic(fmt.Sprintf("nn: %s input rows %d != %d", c.name, x.Rows, c.InDim()))
	}
	batch := x.Cols
	t := matToT4(x, c.InC, c.H, c.W)
	//lint:ignore hotalloc legacy per-call layer path; the compiled engine (infer.go) reads taps in place through precomputed offsets (opConv)
	cols := tensor.Im2Col(t, c.K, c.K, c.Stride, c.Pad)
	var kw, z, out *tensor.Matrix
	if train {
		if c.PSN && !c.sigmaFrozen {
			c.stepSigma()
		}
		c.inCols = cols
		c.batch = batch
		if c.PSN {
			c.effWBuf = c.effectiveKernelInto(c.effWBuf)
			kw = c.effWBuf
		} else {
			kw = c.rawMatrix()
		}
		c.effW = kw
		c.zBuf = kw.MulInto(cols, c.zBuf)
		z = c.zBuf
	} else {
		kw = c.EffectiveKernel()
		z = kw.Mul(cols) // OutC x (batch*outH*outW)
	}
	outH, outW := c.OutH(), c.OutW()
	spatial := outH * outW
	if train {
		c.outBuf = tensor.EnsureMatrix(c.outBuf, c.OutC*spatial, batch)
		out = c.outBuf
	} else {
		//lint:ignore hotalloc legacy per-call layer path; the compiled engine (infer.go) is the zero-alloc fast path
		out = tensor.NewMatrix(c.OutC*spatial, batch)
	}
	for oc := 0; oc < c.OutC; oc++ {
		b := c.B.Data[oc]
		zrow := z.Data[oc*z.Cols : (oc+1)*z.Cols]
		for n := 0; n < batch; n++ {
			for s := 0; s < spatial; s++ {
				out.Data[(oc*spatial+s)*batch+n] = zrow[n*spatial+s] + b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if c.inCols == nil {
		panic("nn: conv Backward before Forward(train)")
	}
	batch := c.batch
	outH, outW := c.OutH(), c.OutW()
	spatial := outH * outW
	// Rearrange grad (OutC*spatial x batch) -> (OutC x batch*spatial).
	c.dzBuf = tensor.EnsureMatrix(c.dzBuf, c.OutC, batch*spatial)
	dz := c.dzBuf
	for oc := 0; oc < c.OutC; oc++ {
		var db float64
		drow := dz.Data[oc*dz.Cols : (oc+1)*dz.Cols]
		for n := 0; n < batch; n++ {
			for s := 0; s < spatial; s++ {
				g := grad.Data[(oc*spatial+s)*batch+n]
				drow[n*spatial+s] = g
				db += g
			}
		}
		c.B.Grad[oc] += db
	}
	c.dEffBuf = dz.MulBTInto(c.inCols, c.dEffBuf)
	dEff := c.dEffBuf
	if !c.PSN {
		for i := range c.Wt.Grad {
			c.Wt.Grad[i] += dEff.Data[i]
		}
	} else {
		s := c.Alpha.Data[0] / c.sigmaRaw
		var dAlpha float64
		for i := range c.Wt.Grad {
			c.Wt.Grad[i] += s * dEff.Data[i]
			dAlpha += c.Wt.Data[i] / c.sigmaRaw * dEff.Data[i]
		}
		c.Alpha.Grad[0] += dAlpha
	}
	c.dcolsBuf = c.effW.TMulInto(dz, c.dcolsBuf)
	dt := tensor.Col2Im(c.dcolsBuf, batch, c.InC, c.H, c.W, c.K, c.K, c.Stride, c.Pad)
	return t4ToMat(dt)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	p := []*Param{c.Wt, c.B}
	if c.Alpha != nil {
		p = append(p, c.Alpha)
	}
	return p
}

// LinearOp implements Spectral. The gains generalize the paper's dense
// formulas to convolution: each output element is an inner product of
// InC*K*K quantized weights with a patch of h, and each input element
// feeds at most K*K/Stride^2 output positions per output channel, giving
//
//	AddGain  = sqrt(OutC) * K / Stride
//	InflGain = sqrt(min(InC*K*K, OutC)) * K / Stride
//
// (for a 1x1 stride-1 conv these reduce to the dense expressions).
func (c *Conv2D) LinearOp() LinearOp {
	c.ensureSigma()
	kw := c.EffectiveKernel()
	var sigma float64
	if c.PSN {
		sigma = math.Abs(c.Alpha.Data[0])
	} else {
		sigma = c.sigmaRaw
	}
	ratio := float64(c.K) / float64(c.Stride)
	return LinearOp{
		LayerName: c.name,
		Weights:   kw.Data,
		Sigma:     sigma,
		InDim:     c.InDim(),
		OutDim:    c.OutDim(),
		WRows:     c.OutC,
		WCols:     c.InC * c.K * c.K,
		AddGain:   math.Sqrt(float64(c.OutC)) * ratio,
		InflGain:  math.Sqrt(math.Min(float64(c.InC*c.K*c.K), float64(c.OutC))) * ratio,
	}
}

// AddRegGrad implements Regularized (see Dense.AddRegGrad).
func (c *Conv2D) AddRegGrad(lambda float64) float64 {
	if !c.PSN {
		c.ensureSigma()
		return lambda * c.sigmaRaw * c.sigmaRaw
	}
	a := c.Alpha.Data[0]
	c.Alpha.Grad[0] += 2 * lambda * a
	return lambda * a * a
}
