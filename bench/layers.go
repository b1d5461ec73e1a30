package main

import (
	"fmt"
	"math"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/gpusim"
	"github.com/scidata/errprop/internal/nn"
)

// layerReplays times the layers' public entry points on the run's own
// seeded inputs, the same way on every workload: engine forward passes
// at the batch sizes the workloads use, container decodes, artifact
// reads and binds, and planning.
func (e *env) layerReplays() error {
	rows := h2Rows(e.opts.Seed, refBatch)
	for _, b := range []int{1, 32, 256} {
		d := timeForward(e.h2.quant, rows[:b])
		e.set(fmt.Sprintf("nn.forward_us.h2comb.b%d", b), "us", us(d))
		if b == refBatch {
			_, costs := gpusim.ExecCost(e.h2.art.Net, gpusim.RTX3080Ti, e.h2.art.Format, b)
			var flops float64
			for _, c := range costs {
				flops += c.FLOPs
			}
			e.set("nn.gflops.h2comb.b256", "GFLOP/s", flops/d.Seconds()/1e9)
		}
	}
	e.set("nn.forward_us.eurosat.b1", "us", us(timeForward(e.euro.quant, euroRows(e.opts.Seed, 1))))
	e.set("nn.flops_per_sample", "count", float64(e.h2.art.Net.FLOPs()))
	e.set("nn.weight_bytes", "bytes", float64(e.h2.art.Net.WeightBytes(e.h2.art.Format.Bits()/8)))

	blob, err := blobSlot(e.h2, rows, detrand.New(uint64(e.opts.Seed)))
	if err != nil {
		return err
	}
	perValue, err := timeDecode(blob.body)
	if err != nil {
		return err
	}
	e.set("compress.decode_ns_per_value.blob", "ns", perValue)
	// The chunk replay decodes a 9x16384 block, the chunk size of a
	// production-scale scoring dataset.
	block := columns(h2Rows(e.opts.Seed, 16384))
	raw, err := compress.Encode("mgard", block.Data, []int{block.Rows, block.Cols}, compress.AbsLinf, 1e-4)
	if err != nil {
		return err
	}
	if perValue, err = timeDecode(raw); err != nil {
		return err
	}
	e.set("compress.decode_ns_per_value.chunk", "ns", perValue)

	var readErr error
	read := perCall(func() {
		for _, m := range []*model{e.h2, e.euro} {
			if _, err := artifact.ReadFile(m.path); err != nil {
				readErr = err
			}
		}
	})
	if readErr != nil {
		return readErr
	}
	e.set("artifact.read_ms", "ms", ms(read))
	var bindErr error
	bind := perCall(func() { _, bindErr = e.h2.art.Program.Bind(e.h2.art.Net, 32, 1) })
	if bindErr != nil {
		return bindErr
	}
	e.set("artifact.bind_us", "us", us(bind))

	tols := make([]float64, 8)
	for k := range tols {
		tols[k] = math.Ldexp(e.h2.an.QuantizationBound(), k+1)
	}
	var planErr error
	next := 0
	plan := perCall(func() {
		_, planErr = core.PlanGraphSteps(e.h2.art.Root, e.h2.art.StepsFor, core.PlanRequest{
			Tol: tols[next%len(tols)], Norm: core.NormLinf, QuantFraction: 0.5,
		})
		next++
	})
	if planErr != nil {
		return planErr
	}
	e.set("core.plan_us", "us", us(plan))
	return nil
}

// timeForward times eng's forward pass over rows as one batch.
func timeForward(eng *nn.Engine, rows [][]float64) time.Duration {
	x := columns(rows)
	return perCall(func() { eng.Forward(x) })
}

// timeDecode times compress.Decode of raw, per decoded value in ns.
func timeDecode(raw []byte) (float64, error) {
	data, _, err := compress.Decode(raw)
	if err != nil {
		return 0, err
	}
	var decodeErr error
	d := perCall(func() { _, _, decodeErr = compress.Decode(raw) })
	if decodeErr != nil {
		return 0, decodeErr
	}
	return float64(d.Nanoseconds()) / float64(len(data)), nil
}
