package quant

import (
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// QuantizeGroupedINT8 returns an inference copy of net with every linear
// layer's weights quantized to INT8 using grouped affine scales — the
// block-/column-/row-wise schemes the paper lists as future work. Finer
// granularities capture local weight ranges, shrinking the effective
// step size and therefore both the bound and the achieved error, at the
// cost of extra scale storage (see numfmt.ScaleOverheadBytes).
func QuantizeGroupedINT8(net *nn.Network, g numfmt.Granularity, blockSize int) (*nn.Network, error) {
	return copyRounded(net, nil, func(_ int, w []float64, rows, cols int) ([]float64, error) {
		rounded, _, err := numfmt.GroupedINT8(w, rows, cols, g, blockSize)
		return rounded, err
	})
}

// GroupedOverheadBytes sums the scale-storage overhead of a grouped
// scheme across the network's linear layers.
func GroupedOverheadBytes(net *nn.Network, g numfmt.Granularity, blockSize int) int {
	total := 0
	for _, op := range net.LinearOps() {
		total += numfmt.ScaleOverheadBytes(op.WRows, op.WCols, g, blockSize)
	}
	return total
}
