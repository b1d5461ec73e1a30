package nn

import (
	"fmt"

	"github.com/scidata/errprop/internal/tensor"
)

// Network is a sequence of layers (possibly including Residual blocks)
// with a fixed input dimension.
type Network struct {
	InputDim int
	Layers   []Layer
	// Spec records how the network was built, enabling serialization and
	// the construction of quantized inference copies. May be nil for
	// hand-assembled networks.
	Spec *Spec
}

// Forward runs the network on a (features x batch) matrix.
//
//errprop:deterministic inference is a pure function of weights and input
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	h := x
	for _, l := range n.Layers {
		h = l.Forward(h, train)
	}
	return h
}

// ForwardVec runs a single sample through the network: Forward on a
// one-column matrix. The result is an independent copy of the output.
func (n *Network) ForwardVec(x tensor.Vector) tensor.Vector {
	//lint:ignore hotalloc single-sample convenience over the reference path; compiled engines are the zero-alloc fast path
	out := n.Forward(tensor.NewMatrixFrom(len(x), 1, x), false)
	return append(tensor.Vector(nil), out.Data...)
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients, and returns dL/d(input).
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return g
}

// forEachLayer visits every layer in forward order, descending into
// residual branches, shortcuts, and skip-connection branches.
func (n *Network) forEachLayer(fn func(Layer)) {
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			fn(l)
			switch t := l.(type) {
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
}

// StepSigmas advances every PSN layer's warm-started power iteration by
// one training step. The serial training loop runs this implicitly
// inside Forward(train=true); the data-parallel trainer calls it
// explicitly on the master network once per optimizer step (then
// broadcasts the estimates to replicas whose own stepping is frozen), so
// the sigma trajectory is a function of the step count alone — not of
// how the batch was sharded across workers.
func (n *Network) StepSigmas() {
	n.forEachLayer(func(l Layer) {
		switch t := l.(type) {
		case *Dense:
			if t.PSN {
				t.stepSigma()
			}
		case *Conv2D:
			if t.PSN {
				t.stepSigma()
			}
		}
	})
}

// SetSigmaStepping enables or disables the per-forward sigma power
// iteration of PSN layers. Replicas in a data-parallel trainer run with
// stepping disabled: their sigma estimates are broadcast from the
// master, and a per-shard iteration would make the effective weights
// depend on the worker schedule.
func (n *Network) SetSigmaStepping(enabled bool) {
	n.forEachLayer(func(l Layer) {
		switch t := l.(type) {
		case *Dense:
			t.sigmaFrozen = !enabled
		case *Conv2D:
			t.sigmaFrozen = !enabled
		}
	})
}

// GradSize returns the total element count of all parameter gradients —
// the length of a flat reduction buffer.
func (n *Network) GradSize() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Grad)
	}
	return total
}

// CopyGradsTo serializes every parameter gradient into dst in parameter
// order and returns the number of elements written. dst must be at
// least GradSize long.
func (n *Network) CopyGradsTo(dst []float64) int {
	off := 0
	for _, p := range n.Params() {
		off += p.CopyGradTo(dst[off:])
	}
	return off
}

// AccumGradsFrom adds a flat gradient buffer (as written by CopyGradsTo)
// elementwise into the parameter gradients and returns the number of
// elements consumed.
func (n *Network) AccumGradsFrom(src []float64) int {
	off := 0
	for _, p := range n.Params() {
		off += p.AccumGradFrom(src[off:])
	}
	return off
}

// SyncFrom copies src's parameter values and spectral-norm estimates
// into n (shapes must match; n is typically a Clone of src). Gradients
// and optimizer state are untouched.
func (n *Network) SyncFrom(src *Network) error {
	dst, sp := n.Params(), src.Params()
	if len(dst) != len(sp) {
		return fmt.Errorf("nn: SyncFrom parameter count mismatch %d vs %d", len(sp), len(dst))
	}
	for i, p := range sp {
		if len(p.Data) != len(dst[i].Data) {
			return fmt.Errorf("nn: SyncFrom parameter %s length mismatch %d vs %d", p.Name, len(p.Data), len(dst[i].Data))
		}
		dst[i].CopyDataFrom(p)
	}
	if !n.setSpectralSigmas(src.spectralSigmas()) {
		return fmt.Errorf("nn: SyncFrom spectral layer mismatch")
	}
	return nil
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// AddRegGrad accumulates the PSN spectral penalty gradient across all
// layers and returns the total penalty value.
func (n *Network) AddRegGrad(lambda float64) float64 {
	var s float64
	for _, l := range n.Layers {
		if reg, ok := l.(Regularized); ok {
			s += reg.AddRegGrad(lambda)
		}
	}
	return s
}

// RefreshSigmas recomputes every spectral layer's operator norm with full
// power iterations (call after training or weight mutation, before
// analysis).
func (n *Network) RefreshSigmas() {
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case Spectral:
				t.RefreshSigma()
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
}

// spectralSigmas collects every spectral layer's current sigma estimate
// in forward order (computing lazily where needed).
func (n *Network) spectralSigmas() []float64 {
	var out []float64
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Dense:
				t.ensureSigma()
				out = append(out, t.sigmaRaw)
			case *Conv2D:
				t.ensureSigma()
				out = append(out, t.sigmaRaw)
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return out
}

// setSpectralSigmas restores persisted sigma estimates; returns false on
// a count mismatch (caller falls back to recomputation).
func (n *Network) setSpectralSigmas(sigmas []float64) bool {
	i := 0
	okAll := true
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Dense:
				if i >= len(sigmas) {
					okAll = false
					return
				}
				t.sigmaRaw, t.sigmaOK = sigmas[i], true
				i++
			case *Conv2D:
				if i >= len(sigmas) {
					okAll = false
					return
				}
				t.sigmaRaw, t.sigmaOK = sigmas[i], true
				i++
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return okAll && i == len(sigmas)
}

// spectralIterVectors collects (deep-copied) each spectral layer's
// power-iteration warm-start vector, in the same forward order as
// spectralSigmas. The vectors are genuine training state: stepSigma
// warm-starts from them, so a resumed run reproduces the uninterrupted
// sigma trajectory bit-for-bit only if they are restored along with the
// sigma estimates.
func (n *Network) spectralIterVectors() [][]float64 {
	var out [][]float64
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Dense:
				out = append(out, append([]float64(nil), t.v...))
			case *Conv2D:
				out = append(out, append([]float64(nil), t.vop...))
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return out
}

// setSpectralIterVectors restores warm-start vectors captured by
// spectralIterVectors; returns false on a count mismatch.
func (n *Network) setSpectralIterVectors(vs [][]float64) bool {
	i := 0
	okAll := true
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Dense:
				if i >= len(vs) {
					okAll = false
					return
				}
				t.v = append(t.v[:0], vs[i]...)
				i++
			case *Conv2D:
				if i >= len(vs) {
					okAll = false
					return
				}
				t.vop = append(t.vop[:0], vs[i]...)
				i++
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return okAll && i == len(vs)
}

// LinearOps returns the LinearOp of every spectral layer in forward
// order, descending into residual branches (shortcut ops are tagged by
// name). Used by diagnostics and tests; the error-flow analysis walks the
// full structure via the errgraph translation instead.
func (n *Network) LinearOps() []LinearOp {
	var out []LinearOp
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case Spectral:
				out = append(out, t.LinearOp())
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return out
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// FLOPs estimates multiply-accumulate operations for a single sample's
// forward pass (used by the roofline execution model).
func (n *Network) FLOPs() int64 {
	var total int64
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch t := l.(type) {
			case *Dense:
				total += 2 * int64(t.In) * int64(t.Out)
			case *Conv2D:
				total += 2 * int64(t.OutC) * int64(t.InC*t.K*t.K) * int64(t.OutH()*t.OutW())
			case *Residual:
				walk(t.Branch)
				walk(t.Shortcut)
			case *SkipConcat:
				walk(t.Branch)
			}
		}
	}
	walk(n.Layers)
	return total
}

// WeightBytes returns the number of bytes the network's weight tensors
// occupy at the given bytes-per-element width (4 for FP32).
func (n *Network) WeightBytes(bytesPerElem int) int64 {
	var total int64
	for _, op := range n.LinearOps() {
		total += int64(len(op.Weights))
	}
	return total * int64(bytesPerElem)
}
