package serve

import (
	"time"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// span is a run of one request's samples, [lo, hi), inside a batch.
type span struct {
	r      *request
	lo, hi int
}

// workLoop runs batches on this worker's private compiled inference
// engine until the model is closed and its FIFO is empty (drain). The
// input matrix and span list are worker-owned and reused across batches
// (the pack loop overwrites every entry), so the steady-state forward
// pass allocates nothing per sample.
func (m *model) workLoop(eng *nn.Engine, maxBatch int) {
	defer m.srv.workers.Done()
	var in *tensor.Matrix
	batch := make([]span, 0, maxBatch)
	for {
		var k int
		batch, k = m.take(batch[:0], maxBatch)
		if k == 0 {
			return
		}
		in = m.runBatch(eng, in, batch, k)
	}
}

// take is the work-conserving batcher: it blocks only while the FIFO is
// empty, then claims up to maxBatch samples from the head requests,
// splitting the head when it holds more than fit, and drops expired
// requests unexecuted (their waiters already gave up). It returns the
// batch and its sample count, 0 once the model is closed and drained.
func (m *model) take(batch []span, maxBatch int) ([]span, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for m.held || (len(m.fifo) == 0 && !m.closed) {
			m.cond.Wait()
		}
		if len(m.fifo) == 0 {
			return batch, 0
		}
		k := 0
		for len(m.fifo) > 0 && k < maxBatch {
			r := m.fifo[0]
			n := min(len(r.in)-r.next, maxBatch-k)
			if r.ctx.Err() != nil {
				n = len(r.in) - r.next
				r.resolve(n)
			} else {
				if r.next == 0 {
					m.srv.metrics.queueWait.observe(time.Since(r.admitted).Seconds())
				}
				batch = append(batch, span{r: r, lo: r.next, hi: r.next + n})
				k += n
			}
			r.next += n
			m.depth.Add(-int64(n))
			if r.next == len(r.in) {
				m.fifo[0] = nil
				m.fifo = m.fifo[1:]
			}
		}
		// Work left over goes to the next idle worker, so a request
		// larger than one batch runs on several engines at once.
		if len(m.fifo) > 0 {
			m.cond.Signal()
		}
		if k > 0 {
			return batch, k
		}
	}
}

// runBatch executes one micro-batch of k samples: they are packed into
// the worker's reusable (features x k) matrix for a single engine
// forward pass, and each result column is copied out to its request
// (the engine owns the output matrix only until its next Forward).
func (m *model) runBatch(eng *nn.Engine, in *tensor.Matrix, batch []span, k int) *tensor.Matrix {
	in = tensor.EnsureMatrix(in, m.inDim, k)
	col := 0
	for _, s := range batch {
		for _, x := range s.r.in[s.lo:s.hi] {
			for f := 0; f < m.inDim; f++ {
				in.Data[f*k+col] = x[f]
			}
			col++
		}
	}
	y := eng.Forward(in)
	// Count the batch before any waiter can wake, so a client holding a
	// response always finds its samples in /metrics.
	m.srv.metrics.batches.Add(1)
	m.srv.metrics.samples.Add(int64(k))
	m.srv.metrics.batchSize.observe(float64(k))
	col = 0
	for _, s := range batch {
		for j := s.lo; j < s.hi; j++ {
			for f := 0; f < m.outDim; f++ {
				s.r.out[j*m.outDim+f] = y.Data[f*k+col]
			}
			col++
		}
		s.r.resolve(s.hi - s.lo)
	}
	return in
}
