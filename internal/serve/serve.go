// Package serve is the online serving layer over the error-propagation
// stack: a concurrent, batched HTTP/JSON inference service that treats
// the paper's QoI tolerance as a per-request contract.
//
// Architecture (all stdlib):
//
//	handler -> per-model request FIFO -> worker pool
//	            (503 + Retry-After       (each idle worker takes up to MaxBatch
//	             when full)               samples; one compiled Engine each)
//
// Each registered model is an ahead-of-time artifact (internal/artifact)
// and owns one request FIFO and Config.Workers workers. A worker holds a
// private inference engine bound from the artifact's compiled program:
// engines share the served weights read-only, and Engine.Forward is
// bit-identical to Network.Forward, so the model's error-flow analysis
// applies to the served path verbatim. Batching is work-conserving:
// requests coalesce into one (features x batch) forward pass exactly when
// they queued up behind busy workers, and an idle server answers a lone
// request at once — there is no flush timer.
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
	// MaxBatch is the most samples a worker packs into one forward pass
	// (default 32). 1 disables coalescing: every sample runs alone.
	MaxBatch int
	// QueueCap bounds the samples queued per model and not yet taken by a
	// worker (default 1024). A request that does not fit is rejected
	// whole with 503 + Retry-After instead of blocking.
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
	once     sync.Once
	workers  sync.WaitGroup // every model's workers
}

// New builds a server (no listening socket; mount Server.Handler).
func New(cfg Config) *Server {
	cfg.fillDefaults()
	return &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		models:  make(map[string]*model),
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

	mu     sync.Mutex
	cond   *sync.Cond // signalled when the FIFO gains work or the model closes
	fifo   []*request // admitted requests with samples not yet taken, oldest first
	closed bool
	held   bool // tests only: while set, workers take nothing

	requests atomic.Int64
	samples  atomic.Int64
	admitted atomic.Int64 // samples accepted into queue (counted at admission, not completion)
	depth    atomic.Int64 // admitted samples no worker has taken yet (written under mu)

	srv *Server
}

// request is one admitted predict call. Workers take its samples in
// order (next is guarded by the model's mu) and write sample i's result
// to out[i*outDim:]. done is closed once no sample is pending: all ran,
// or the rest were dropped because ctx expired.
type request struct {
	ctx      context.Context
	in       [][]float64
	out      []float64
	next     int
	pending  atomic.Int64
	admitted time.Time
	done     chan struct{}
}

// resolve marks n of r's samples finished.
func (r *request) resolve(n int) {
	if r.pending.Add(-int64(n)) == 0 {
		close(r.done)
	}
}

// RegisterArtifact adds a named model served from an ahead-of-time
// compiled artifact (internal/artifact) — the one registration path. A
// model file is decoded (artifact.Decode/ReadFile verify its frame,
// canonical form and certified bound); a spec model is compiled in
// memory by artifact.Build first. Nothing is re-quantized or re-analyzed
// here: the artifact's program is bound to its (already quantized)
// weights, the planner runs against its error-flow graph and build-time
// step tables, and the model's reported checksum is the artifact body's
// — the identity a gateway registry pins.
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
		srv:      s,
	}
	m.cond = sync.NewCond(&m.mu)

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

	s.workers.Add(len(engines))
	for _, eng := range engines {
		go m.workLoop(eng, s.cfg.MaxBatch)
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
		depth += int(m.depth.Load()) //lint:ignore maporder integer addition commutes; the sum is order-independent
	}
	return depth
}

// Close drains the server: new requests are rejected with 503, every
// already-admitted request is executed to completion, and all worker
// goroutines exit before Close returns. Safe to call more than once.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		for _, m := range s.models {
			m.mu.Lock()
			m.closed = true
			m.mu.Unlock()
			m.cond.Broadcast()
		}
		s.mu.Unlock()
		// No worker starts after draining is set under s.mu (RegisterArtifact
		// re-checks it there), so this Wait sees every Add.
		s.workers.Wait()
	})
}

// admit appends r to the FIFO without blocking. It reserves all of r's
// samples against QueueCap or none: a request that does not fit is
// rejected whole, so no sample of a rejected request ever executes.
func (m *model) admit(r *request) error {
	n := len(r.in)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrDraining
	}
	if m.depth.Load()+int64(n) > int64(m.srv.cfg.QueueCap) {
		return ErrBusy
	}
	r.admitted = time.Now()
	m.fifo = append(m.fifo, r)
	m.depth.Add(int64(n))
	// Counted at admission (requests/samples count at completion), so
	// observers — drain tests, operators watching a wedged model — can
	// distinguish "accepted but stuck" from "never arrived".
	m.admitted.Add(int64(n))
	m.cond.Signal()
	return nil
}

// predict queues samples as one request and waits for every result (or
// ctx expiry).
func (m *model) predict(ctx context.Context, samples [][]float64) ([][]float64, error) {
	r := &request{
		ctx:  ctx,
		in:   samples,
		out:  make([]float64, len(samples)*m.outDim),
		done: make(chan struct{}),
	}
	r.pending.Store(int64(len(samples)))
	if err := m.admit(r); err != nil {
		return nil, err
	}
	select {
	case <-r.done:
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outs := make([][]float64, len(samples))
	for i := range outs {
		outs[i] = r.out[i*m.outDim : (i+1)*m.outDim : (i+1)*m.outDim]
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
