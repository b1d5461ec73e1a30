// Package pipeline assembles the paper's end-to-end inference pipeline
// (Fig. 1): error-bounded lossy input reduction, storage I/O,
// preprocessing, and (quantized) model execution. Data values flow
// through the real codecs and the real network; phase *timings* come from
// the simulated substrates (internal/hpcio for the storage path,
// internal/gpusim for the accelerator), since the paper's filesystems and
// GPUs are unavailable.
package pipeline

import (
	"fmt"
	"time"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/gpusim"
	"github.com/scidata/errprop/internal/hpcio"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
	"github.com/scidata/errprop/internal/tensor"
)

// preprocessBW models the host-side normalization/layout pass (two
// streaming passes over the data on a CPU socket).
const preprocessBW = 6e9 // bytes/s

// Config selects the pipeline's reduction and execution setup.
type Config struct {
	// Codec is the compression backend name ("sz", "zfp", "mgard"), or
	// empty for uncompressed I/O.
	Codec string
	// Mode and InputTol configure the codec's error bound.
	Mode     compress.Mode
	InputTol float64
	// Format is the weight quantization format (FP32 = none).
	Format numfmt.Format
	// Device is the simulated accelerator (default RTX 3080 Ti).
	Device *gpusim.Device
	// Storage is the simulated filesystem (default 2.8 GB/s Lustre).
	Storage *hpcio.Storage
	// Decode calibrates decompression speeds (default model).
	Decode hpcio.DecodeModel
	// Batch is the execution batch size (default 256).
	Batch int
}

func (c *Config) fillDefaults() {
	if c.Device == nil {
		c.Device = gpusim.RTX3080Ti
	}
	if c.Storage == nil {
		c.Storage = hpcio.DefaultStorage()
	}
	if c.Decode == nil {
		c.Decode = hpcio.DefaultDecodeModel()
	}
	if c.Batch == 0 {
		c.Batch = 256
	}
}

// Pipeline is a configured inference pipeline over a fixed network.
type Pipeline struct {
	cfg  Config
	net  *nn.Network // original full-precision network
	qnet *nn.Network // execution network (quantized copy, or net itself)
	eng  *nn.Engine  // qnet compiled for cfg.Batch-sample batches
}

// New builds a pipeline, quantizing the network if the config asks for
// it, and compiles the execution network into the engine Infer runs.
func New(net *nn.Network, cfg Config) (*Pipeline, error) {
	cfg.fillDefaults()
	p := &Pipeline{cfg: cfg, net: net, qnet: net}
	if cfg.Format != numfmt.FP32 {
		q, err := quant.Quantize(net, cfg.Format)
		if err != nil {
			return nil, err
		}
		p.qnet = q
	}
	eng, err := nn.CompileInference(p.qnet, cfg.Batch)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	if cfg.Codec != "" {
		c, err := compress.ByName(cfg.Codec)
		if err != nil {
			return nil, err
		}
		if !c.SupportsMode(cfg.Mode) {
			return nil, fmt.Errorf("pipeline: codec %s does not support mode %s", cfg.Codec, cfg.Mode)
		}
		if cfg.InputTol <= 0 {
			return nil, fmt.Errorf("pipeline: compression requires a positive input tolerance")
		}
	}
	return p, nil
}

// FromPlan builds a pipeline from a planner decision: the plan's format
// and input tolerance drive quantization and the codec configuration.
func FromPlan(net *nn.Network, plan *core.Plan, codec string, norm core.Norm, cfg Config) (*Pipeline, error) {
	cfg.Format = plan.Format
	cfg.Codec = codec
	if norm == core.NormLinf {
		cfg.Mode = compress.AbsLinf
		cfg.InputTol = plan.InputTolLinf
	} else {
		cfg.Mode = compress.L2
		cfg.InputTol = plan.InputTolL2
	}
	return New(net, cfg)
}

// Network returns the execution network (quantized when configured).
func (p *Pipeline) Network() *nn.Network { return p.qnet }

// Result reports one pipeline run.
type Result struct {
	// Output holds the network outputs (OutDim x N).
	Output *tensor.Matrix
	// Samples is the number of inferences performed.
	Samples int
	// RawBytes is the uncompressed input size.
	RawBytes int64
	// Phase timings (simulated).
	IO, Preprocess, Exec time.Duration
	// Phase throughputs in bytes of scientific input data per second.
	IOThroughput, PreprocessThroughput, ExecThroughput float64
	// TotalThroughput is the streaming-pipeline rate: the slowest phase
	// (Fig. 10's "the total throughput is determined by the slower of
	// the two phases").
	TotalThroughput float64
	// Ratio is the achieved compression ratio (1 when uncompressed).
	Ratio float64
	// InputLinf/InputL2 are the achieved input reconstruction errors.
	InputLinf, InputL2 float64
}

// Infer runs the pipeline over an input block stored in field layout
// (feature-major, dims describing the stored grid, dims[0] = feature
// count). It compresses the block (write-side, untimed), simulates the
// timed read+decode, preprocesses, and executes the network on the
// reconstruction. A Pipeline runs one Infer at a time: its engine is
// not safe for concurrent use.
func (p *Pipeline) Infer(field []float64, dims []int) (*Result, error) {
	inDim := dims[0]
	if inDim != p.net.InputDim {
		return nil, fmt.Errorf("pipeline: field feature dim %d != network input %d", inDim, p.net.InputDim)
	}
	n := 1
	for _, d := range dims[1:] {
		n *= d
	}
	res := &Result{Samples: n, RawBytes: int64(len(field) * 8)}

	// Storage phase.
	var recon []float64
	if p.cfg.Codec == "" {
		rr, err := hpcio.ReadRaw(p.cfg.Storage, len(field))
		if err != nil {
			return nil, err
		}
		recon = field
		res.IO = rr.ReadTime
		res.Ratio = 1
	} else {
		blob, err := compress.Encode(p.cfg.Codec, field, dims, p.cfg.Mode, p.cfg.InputTol)
		if err != nil {
			return nil, err
		}
		rr, err := hpcio.ReadCompressed(p.cfg.Storage, p.cfg.Decode, blob)
		if err != nil {
			return nil, err
		}
		recon = rr.Data
		res.IO = rr.ReadTime + rr.DecodeTime
		res.Ratio = rr.Ratio
		res.InputLinf, res.InputL2 = compress.MeasureError(field, recon)
	}

	// Preprocess phase: reshape feature-major fields into network batch
	// layout (simulated as a streaming pass).
	res.Preprocess = time.Duration(float64(res.RawBytes)/preprocessBW*1e9) * time.Nanosecond
	x := tensor.NewMatrixFrom(inDim, n, recon)

	// Execution phase: real forward passes through the engine, each
	// batch packed into one reused input, and simulated device time.
	out := tensor.NewMatrix(p.eng.OutputDim(), n)
	batch := p.cfg.Batch
	in := make([]float64, inDim*min(batch, n))
	var exec time.Duration
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		k := hi - lo
		xb := tensor.NewMatrixFrom(inDim, k, in[:inDim*k])
		for f := 0; f < inDim; f++ {
			copy(xb.Data[f*k:(f+1)*k], x.Data[f*n+lo:f*n+hi])
		}
		yb := p.eng.Forward(xb)
		for f := 0; f < yb.Rows; f++ {
			copy(out.Data[f*n+lo:f*n+hi], yb.Data[f*k:(f+1)*k])
		}
		dt, _ := gpusim.ExecCost(p.qnet, p.cfg.Device, p.cfg.Format, k)
		exec += dt
	}
	res.Exec = exec
	res.Output = out

	raw := float64(res.RawBytes)
	res.IOThroughput = raw / res.IO.Seconds()
	res.PreprocessThroughput = raw / res.Preprocess.Seconds()
	res.ExecThroughput = raw / res.Exec.Seconds()
	res.TotalThroughput = res.IOThroughput
	for _, tp := range []float64{res.PreprocessThroughput, res.ExecThroughput} {
		if tp < res.TotalThroughput {
			res.TotalThroughput = tp
		}
	}
	return res, nil
}
