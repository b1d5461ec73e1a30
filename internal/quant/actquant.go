package quant

import (
	"fmt"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// QuantizeActivations returns an inference copy of net whose weights are
// rounded to weightFmt (numfmt.FP32 keeps them) and whose activation
// outputs are additionally rounded to actFmt after every nonlinearity —
// the activation-quantization extension the paper sketches in Section
// III-B. actFmt must be a float format (INT8 activations need
// calibration).
func QuantizeActivations(net *nn.Network, weightFmt, actFmt numfmt.Format) (*nn.Network, error) {
	if actFmt == numfmt.INT8 {
		return nil, fmt.Errorf("quant: INT8 activation quantization unsupported (needs calibration)")
	}
	return copyRounded(net, &actFmt, roundTo(weightFmt))
}

// insertRounds places a round layer after every activation, recursively.
func insertRounds(ls []nn.LayerSpec, f numfmt.Format) []nn.LayerSpec {
	var out []nn.LayerSpec
	for _, l := range ls {
		l.Branch = insertRounds(l.Branch, f)
		l.Shortcut = insertRounds(l.Shortcut, f)
		out = append(out, l)
		if l.Type == "act" {
			out = append(out, nn.LayerSpec{Type: "round", Fmt: f.String()})
		}
	}
	return out
}
