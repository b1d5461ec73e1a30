// Package quant implements post-training weight-only quantization of
// internal/nn networks, the model-reduction half of the paper's pipeline.
// Quantize produces a plain inference copy whose linear-layer weights are
// the original network's *effective* weights (PSN folded in) rounded to
// the chosen numeric format with uniform affine max-calibration semantics
// (Table I). Biases and activations stay in full precision, matching the
// paper's weight-only scheme.
//
// Every quantizer is one walk (copyRounded) under its own rounding rule:
// the copy keeps everything the original holds except the dense and conv
// weights the rule rounds, so the network that runs is the network the
// analysis certifies.
package quant

import (
	"fmt"
	"reflect"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// Quantize returns an inference copy of net with every dense/conv weight
// tensor rounded to format f. The original network is untouched. The
// network must carry its Spec (built via nn.Spec.Build or nn.Load).
func Quantize(net *nn.Network, f numfmt.Format) (*nn.Network, error) {
	return copyRounded(net, nil, roundTo(f))
}

// rule maps one linear op — its index among the network's linear layers
// in forward order (Network.LinearOps), its effective weights and their
// rows x cols shape — to the weights the copy stores.
type rule func(op int, w []float64, rows, cols int) ([]float64, error)

// roundTo is Quantize's rule: every linear op rounded to f.
func roundTo(f numfmt.Format) rule {
	return func(_ int, w []float64, _, _ int) ([]float64, error) {
		return numfmt.RoundSlice(f, w), nil
	}
}

// copyRounded builds net's spec without PSN (the copy stores final
// effective weights directly) and fills it from net: dense and conv
// layers take rule-rounded effective weights and their bias, and every
// other layer's parameters are copied bit for bit. A non-nil actFmt
// inserts a round layer to *actFmt after every activation.
func copyRounded(net *nn.Network, actFmt *numfmt.Format, r rule) (*nn.Network, error) {
	if net.Spec == nil {
		return nil, fmt.Errorf("quant: network has no Spec")
	}
	spec := *net.Spec
	spec.Layers = stripPSN(spec.Layers)
	if actFmt != nil {
		spec.Layers = insertRounds(spec.Layers, *actFmt)
	}
	dst, err := spec.Build(0)
	if err != nil {
		return nil, fmt.Errorf("quant: rebuilding spec: %w", err)
	}
	w := &walker{rule: r, rounded: actFmt != nil}
	if err := w.layers(net.Layers, dst.Layers); err != nil {
		return nil, err
	}
	dst.RefreshSigmas()
	return dst, nil
}

// stripPSN returns a deep copy of the layer specs with PSN disabled on
// every layer.
func stripPSN(ls []nn.LayerSpec) []nn.LayerSpec {
	out := make([]nn.LayerSpec, len(ls))
	for i, l := range ls {
		l.PSN = false
		l.Branch = stripPSN(l.Branch)
		l.Shortcut = stripPSN(l.Shortcut)
		out[i] = l
	}
	return out
}

// walker fills a copy's layers from the original's, in lockstep.
type walker struct {
	rule rule
	// rounded says the copy has a round layer inserted after every
	// activation (QuantizeActivations); the walk skips exactly those.
	rounded bool
	// op is the forward index of the next linear layer.
	op int
}

// layers fills the layer sequence dst from src. With w.rounded, dst
// holds one more layer after each activation: the inserted round layer.
func (w *walker) layers(src, dst []nn.Layer) error {
	j := 0
	for _, s := range src {
		if j == len(dst) {
			return fmt.Errorf("quant: copy has fewer layers than the original at %s", s.Name())
		}
		if err := w.layer(s, dst[j]); err != nil {
			return err
		}
		j++
		if _, ok := s.(*nn.Activation); ok && w.rounded {
			inserted := false
			if j < len(dst) {
				_, inserted = dst[j].(*nn.RoundLayer)
			}
			if !inserted {
				return fmt.Errorf("quant: no round layer inserted after %s", s.Name())
			}
			j++
		}
	}
	if j != len(dst) {
		return fmt.Errorf("quant: copy has %d layers, original %d", len(dst), len(src))
	}
	return nil
}

// layer fills one layer of the copy from its original, which must have
// the same type.
func (w *walker) layer(src, dst nn.Layer) error {
	if reflect.TypeOf(src) != reflect.TypeOf(dst) {
		return fmt.Errorf("quant: layer %s type mismatch (%T vs %T)", src.Name(), src, dst)
	}
	switch s := src.(type) {
	case *nn.Dense:
		d := dst.(*nn.Dense)
		return w.linear(s.Name(), s.EffectiveMatrix().Data, s.Out, s.In, d.W, s.B, d.B)
	case *nn.Conv2D:
		d := dst.(*nn.Conv2D)
		return w.linear(s.Name(), s.EffectiveKernel().Data, s.OutC, s.InC*s.K*s.K, d.Wt, s.B, d.B)
	case *nn.Residual:
		d := dst.(*nn.Residual)
		if err := w.layers(s.Branch, d.Branch); err != nil {
			return err
		}
		return w.layers(s.Shortcut, d.Shortcut)
	case *nn.SkipConcat:
		return w.layers(s.Branch, dst.(*nn.SkipConcat).Branch)
	}
	sp, dp := src.Params(), dst.Params()
	if len(sp) != len(dp) {
		return fmt.Errorf("quant: %s: %d parameters vs %d in the copy", src.Name(), len(sp), len(dp))
	}
	for i, p := range sp {
		if err := copyParam(dp[i], p.Data); err != nil {
			return err
		}
	}
	return nil
}

// linear stores the rule's rounding of one linear layer's effective
// weights, and its bias, into the copy.
func (w *walker) linear(name string, eff []float64, rows, cols int, dstW, srcB, dstB *nn.Param) error {
	q, err := w.rule(w.op, eff, rows, cols)
	if err != nil {
		return fmt.Errorf("quant: %s: %w", name, err)
	}
	w.op++
	if err := copyParam(dstW, q); err != nil {
		return err
	}
	return copyParam(dstB, srcB.Data)
}

func copyParam(dst *nn.Param, src []float64) error {
	if len(src) != len(dst.Data) {
		return fmt.Errorf("quant: parameter %s has %d values, the copy %d", dst.Name, len(src), len(dst.Data))
	}
	copy(dst.Data, src)
	return nil
}
