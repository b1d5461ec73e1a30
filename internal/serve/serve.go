// Package serve is the online serving layer over the error-propagation
// stack: a concurrent, batched HTTP/JSON inference service that treats
// the paper's QoI tolerance as a per-request contract.
//
// Architecture (all stdlib):
//
//	handler -> bounded admission queue -> dynamic micro-batcher -> worker pool
//	            (503 + Retry-After        (flush on max batch      (one compiled
//	             when full)                size or deadline)         Engine each)
//
// Each registered model is an ahead-of-time artifact (internal/artifact)
// and owns one admission queue, one batcher goroutine and Config.Workers
// worker goroutines. A worker holds a private inference engine bound from
// the artifact's compiled program (Program.Bind) rather than a full
// nn.Network clone: engines share the served network's weights as
// read-only views — no per-worker weight duplication, no backward-cache
// baggage — while each engine's private buffer arena gives the worker
// the mutable per-call state a shared *nn.Network cannot (Forward on a
// network caches per-layer state for Backward). Engine.Forward is
// bit-identical to Network.Forward, so the model's error-flow analysis
// applies to the served path verbatim. The batcher gives the service its
// throughput: requests arriving within FlushInterval of each other are
// coalesced into one (features x batch) forward pass, amortizing
// per-call dispatch and allocation overhead across the batch.
//
// Error budgets: a request may carry a QoI tolerance (and optionally the
// input reconstruction error of a lossy-compressed payload). The server
// evaluates the registered model's error-flow analysis (internal/core,
// Inequality (3)) against that tolerance before running inference and
// rejects unsatisfiable requests with 422 — the serving-time counterpart
// of the paper's Fig. 1 planner, which is itself exposed at /v1/plan so
// clients can split a tolerance between input compression and weight
// format up front.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/nn"
)

// Config tunes the service. The zero value is usable; every field has a
// production-shaped default.
type Config struct {
	// MaxBatch is the micro-batcher's maximum batch size (default 32).
	// 1 disables coalescing: every request runs as its own forward pass.
	MaxBatch int
	// FlushInterval is how long the batcher waits for more requests
	// after the first one before flushing a partial batch (default 2ms).
	FlushInterval time.Duration
	// QueueCap bounds the per-model admission queue (default 1024). A
	// full queue rejects with 503 + Retry-After instead of blocking.
	QueueCap int
	// Workers is the number of compiled inference engines serving each model
	// (default 4).
	Workers int
	// RequestTimeout bounds each request's time in queue + execution
	// (default 5s); expiry returns 504.
	RequestTimeout time.Duration
	// RetryAfter is the client backoff hint on 503 responses (default
	// 1s; rounded up to whole seconds, minimum 1).
	RetryAfter time.Duration
	// MaxBodyBytes caps accepted request bodies (default 32 MiB).
	MaxBodyBytes int64
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBusy means the admission queue is full (503 + Retry-After).
	ErrBusy = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down (503).
	ErrDraining = errors.New("serve: server draining")
	// ErrBudget means the predicted error bound exceeds the request's
	// tolerance (422).
	ErrBudget = errors.New("serve: error budget unsatisfiable")
)

// Server routes inference requests to registered models. Create with
// New, add models with RegisterArtifact, mount Handler, stop with Close.
type Server struct {
	cfg     Config
	metrics *metrics

	mu       sync.RWMutex
	models   map[string]*model
	draining atomic.Bool
	closed   chan struct{}
	once     sync.Once
}

// New builds a server (no listening socket; mount Server.Handler).
func New(cfg Config) *Server {
	cfg.fillDefaults()
	return &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		models:  make(map[string]*model),
		closed:  make(chan struct{}),
	}
}

// Config reports the effective (defaults-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// model is one registered artifact with its serving machinery. The
// artifact supplies the serving format, the planner's inputs (the
// original network's error-flow graph and its build-time step tables)
// and the checksum identity /v1/models reports.
type model struct {
	name     string
	art      *artifact.Artifact
	analysis *core.Analysis // error-flow analysis at the serving format
	inDim    int
	outDim   int

	queue chan *item   // admission queue (bounded)
	work  chan []*item // batcher -> workers (unbuffered: backpressure)

	enqMu  sync.RWMutex // guards queue close vs. concurrent sends
	closed bool

	wg sync.WaitGroup // batcher + workers

	requests atomic.Int64
	samples  atomic.Int64
	admitted atomic.Int64 // samples accepted into queue (counted at admission, not completion)

	srv *Server
}

// item is one sample travelling through the batcher. done is closed by
// exactly one of: a worker (out or err set) or the skip path for an
// expired context.
type item struct {
	ctx  context.Context
	x    []float64
	out  []float64
	err  error
	done chan struct{}
}

// RegisterArtifact adds a named model served from an ahead-of-time
// compiled artifact (internal/artifact) — the one registration path. A
// model file is decoded (artifact.Decode/ReadFile verify its frame,
// canonical form, program and certified bound); a spec model is compiled
// in memory by artifact.Build first. Nothing is recompiled or re-derived
// here: the shipped program is bound to the shipped (already quantized)
// weights, the planner runs against the shipped error-flow graph and
// build-time step tables, and the model's reported checksum is the
// artifact body's — the identity a gateway registry pins.
func (s *Server) RegisterArtifact(name string, art *artifact.Artifact) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if art == nil {
		return fmt.Errorf("serve: nil artifact for %q", name)
	}
	if s.draining.Load() {
		return ErrDraining
	}
	steps, err := art.StepsFor(art.Format)
	if err != nil {
		return fmt.Errorf("serve: artifact %q: %w", name, err)
	}
	engines := make([]*nn.Engine, s.cfg.Workers)
	for i := range engines {
		eng, err := art.Program.Bind(art.Net, s.cfg.MaxBatch, 1)
		if err != nil {
			return fmt.Errorf("serve: binding artifact engine for %q: %w", name, err)
		}
		engines[i] = eng
	}
	m := &model{
		name:     name,
		art:      art,
		analysis: core.Analyze(art.Root, steps),
		inDim:    art.Net.InputDim,
		outDim:   engines[0].OutputDim(),
		queue:    make(chan *item, s.cfg.QueueCap),
		work:     make(chan []*item),
		srv:      s,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: Close snapshots s.models while holding it,
	// so a model added here is either drained by Close or rejected.
	if s.draining.Load() {
		return ErrDraining
	}
	if _, dup := s.models[m.name]; dup {
		return fmt.Errorf("serve: model %q already registered", m.name)
	}
	s.models[m.name] = m

	m.wg.Add(1 + len(engines))
	go m.batchLoop(s.cfg.MaxBatch, s.cfg.FlushInterval)
	for _, eng := range engines {
		go m.workLoop(eng)
	}
	return nil
}

// Models lists registered model names in sorted order, so the /v1/models
// response is byte-identical across calls and processes.
func (s *Server) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for name := range s.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Server) model(name string) (*model, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	return m, ok
}

// Draining reports whether Close has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth reports the summed admission-queue depth across models —
// the backlog a request admitted right now would sit behind.
func (s *Server) QueueDepth() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	depth := 0
	for _, m := range s.models {
		depth += len(m.queue) //lint:ignore maporder integer addition commutes; the sum is order-independent
	}
	return depth
}

// Close drains the server: new requests are rejected with 503, every
// already-admitted request is executed to completion, and all batcher
// and worker goroutines exit before Close returns. Safe to call more
// than once.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		models := make([]*model, 0, len(s.models))
		for _, m := range s.models {
			models = append(models, m) //lint:ignore maporder shutdown order is observationally irrelevant: every queue is closed before any wait
		}
		s.mu.Unlock()
		for _, m := range models {
			m.enqMu.Lock()
			m.closed = true
			close(m.queue)
			m.enqMu.Unlock()
		}
		for _, m := range models {
			m.wg.Wait()
		}
		close(s.closed)
	})
	<-s.closed
}

// enqueue admits one item without blocking.
func (m *model) enqueue(it *item) error {
	m.enqMu.RLock()
	defer m.enqMu.RUnlock()
	if m.closed {
		return ErrDraining
	}
	select {
	case m.queue <- it:
		// Counted at admission (requests/samples count at completion), so
		// observers — drain tests, operators watching a wedged model — can
		// distinguish "accepted but stuck" from "never arrived".
		m.admitted.Add(1)
		return nil
	default:
		return ErrBusy
	}
}

// predict pushes samples through the batcher and waits for every result
// (or ctx expiry). Admission is all-or-nothing from the caller's view:
// on a full queue the request is rejected, though samples admitted
// before the rejection still execute and are discarded.
func (m *model) predict(ctx context.Context, samples [][]float64) ([][]float64, error) {
	items := make([]*item, len(samples))
	for i, x := range samples {
		items[i] = &item{ctx: ctx, x: x, done: make(chan struct{})}
	}
	for _, it := range items {
		if err := m.enqueue(it); err != nil {
			return nil, err
		}
	}
	outs := make([][]float64, len(items))
	for i, it := range items {
		select {
		case <-it.done:
			if it.err != nil {
				return nil, it.err
			}
			outs[i] = it.out
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m.requests.Add(1)
	m.samples.Add(int64(len(samples)))
	return outs, nil
}

// checkBudget evaluates the model's predicted QoI bound (quantization
// plus declared input error) against a request tolerance. tol <= 0 means
// "no contract": the bound is still reported, never enforced.
func (m *model) checkBudget(tol float64, norm core.Norm, inputErr float64) (quantBound, totalBound float64, err error) {
	quantBound = m.analysis.QuantizationBound()
	if norm == core.NormLinf {
		totalBound = m.analysis.BoundLinf(inputErr)
	} else {
		totalBound = m.analysis.Bound(inputErr)
	}
	if tol > 0 && totalBound > tol {
		return quantBound, totalBound, ErrBudget
	}
	return quantBound, totalBound, nil
}
