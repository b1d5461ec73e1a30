package experiments

import (
	"sync"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// The figure loops sweep the same trained networks over many compressed
// inputs, formats and tolerances — all inference-only. evalForward
// routes those sweeps through a compiled inference engine
// (nn.CompileInference, bit-identical to Network.Forward, so measured
// errors and certified bounds are unchanged to the last bit), compiled
// once per network and cached for the life of the process. Every figure
// network is spec-built with a known input width, so a compile failure
// is a bug and panics like the experiments' other errors.

// evalEngineBatch sizes the cached engines' buffer arenas; eval batches
// larger than this still work (the arena grows to the high-water mark).
const evalEngineBatch = 64

var (
	evalMu      sync.Mutex
	evalEngines = map[*nn.Network]*nn.Engine{}
)

// evalForward runs an inference-only forward pass through net's cached
// engine. The result is an independent copy (callers routinely hold a
// reference output while computing a perturbed one). The mutex also
// serializes engine use, since the figure loops may share networks.
func evalForward(net *nn.Network, x *tensor.Matrix) *tensor.Matrix {
	evalMu.Lock()
	defer evalMu.Unlock()
	eng, cached := evalEngines[net]
	if !cached {
		var err error
		if eng, err = nn.CompileInference(net, evalEngineBatch); err != nil {
			panic(err)
		}
		evalEngines[net] = eng
	}
	return eng.Forward(x).Clone()
}
