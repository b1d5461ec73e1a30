package quant

import (
	"fmt"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// QuantizeMixed returns an inference copy of net whose linear layers are
// quantized per the assignment (forward order, matching
// Network.LinearOps) — the execution side of the mixed-precision planner
// in internal/core.
func QuantizeMixed(net *nn.Network, assignment []numfmt.Format) (*nn.Network, error) {
	nLinear := len(net.LinearOps())
	if len(assignment) != nLinear {
		return nil, fmt.Errorf("quant: assignment length %d != %d linear layers", len(assignment), nLinear)
	}
	return copyRounded(net, nil, func(op int, w []float64, _, _ int) ([]float64, error) {
		return numfmt.RoundSlice(assignment[op], w), nil
	})
}
