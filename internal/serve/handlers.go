package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/numfmt"
)

// BlobContentType marks a request body holding a self-describing
// compressed container (see internal/compress): clients compress their
// input block under the tolerance granted by /v1/plan and POST the blob
// directly.
const BlobContentType = "application/x-errprop-blob"

// PredictRequest is the JSON body of POST /v1/predict.
type PredictRequest struct {
	// Model names a registered model.
	Model string `json:"model"`
	// Inputs holds one row per sample, each of the model's input width.
	Inputs [][]float64 `json:"inputs"`
	// Tolerance, when > 0, is the request's QoI error budget: the
	// predicted bound (quantization + declared input error) must fit or
	// the request is rejected with 422.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Norm states the tolerance's norm: "linf" (default) or "l2".
	Norm string `json:"norm,omitempty"`
	// InputError declares the inputs' reconstruction error (same norm),
	// e.g. the compression tolerance the inputs were encoded with.
	InputError float64 `json:"input_error,omitempty"`
}

// BoundInfo reports the error contract evaluated for a request.
type BoundInfo struct {
	Format     string  `json:"format"`
	Norm       string  `json:"norm"`
	QuantBound float64 `json:"quant_bound"`
	TotalBound float64 `json:"total_bound"`
	Tolerance  float64 `json:"tolerance,omitempty"`
}

// PredictResponse is the JSON body of a successful predict.
type PredictResponse struct {
	Model   string      `json:"model"`
	Samples int         `json:"samples"`
	Outputs [][]float64 `json:"outputs"`
	Bound   *BoundInfo  `json:"bound,omitempty"`
}

// PlanRequest is the JSON body of POST /v1/plan.
type PlanRequest struct {
	Model string  `json:"model"`
	Tol   float64 `json:"tol"`
	Norm  string  `json:"norm,omitempty"`
	// QuantFraction defaults to 0.5 when zero.
	QuantFraction float64  `json:"quant_fraction,omitempty"`
	Conservative  bool     `json:"conservative,omitempty"`
	Formats       []string `json:"formats,omitempty"`
}

// PlanResponse mirrors core.Plan; infinite input tolerances (a zero
// Lipschitz product) are reported as null.
type PlanResponse struct {
	Model          string   `json:"model"`
	Norm           string   `json:"norm"`
	Format         string   `json:"format"`
	QuantBound     float64  `json:"quant_bound"`
	CompressBudget float64  `json:"compress_budget"`
	InputTolL2     *float64 `json:"input_tol_l2"`
	InputTolLinf   *float64 `json:"input_tol_linf"`
	TotalBound     float64  `json:"total_bound"`
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// json.Encoder.Encode to an http.ResponseWriter: a failure means the
	// client hung up mid-response; there is nobody left to report it to.
	//lint:ignore droppederr response-write failure, not a codec bound; the client is gone
	_ = enc.Encode(v)
}

// setRetryAfter stamps the client backoff hint every 503 this server
// emits must carry — queue-full, drain-rejected predicts, and the
// draining /healthz alike — so a gateway or client never has to guess
// whether backing off is wanted.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusServiceUnavailable {
		s.setRetryAfter(w)
	}
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Health is the GET /healthz body. Liveness and readiness are distinct:
// any well-formed response means the process is alive, while Ready
// means it will accept a predict right now — false while draining and
// before the first model registers. A routing tier stops sending
// traffic the moment Ready goes false, *before* requests start
// bouncing off ErrDraining.
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Ready means requests routed here now will be admitted.
	Ready bool `json:"ready"`
	// Draining means Close has started: alive, finishing in-flight work,
	// accepting nothing new.
	Draining bool `json:"draining"`
	// QueueDepth is the summed admission-queue depth across models — a
	// load signal for probes that want to route around a backlogged
	// backend before it starts shedding.
	QueueDepth int `json:"queue_depth"`
	// Models lists registered model names, sorted.
	Models []string `json:"models"`
}

// Health snapshots the server's liveness/readiness state.
func (s *Server) Health() Health {
	models := s.Models()
	draining := s.draining.Load()
	h := Health{
		Status:     "ok",
		Ready:      !draining && len(models) > 0,
		Draining:   draining,
		QueueDepth: s.QueueDepth(),
		Models:     models,
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	if h.Draining {
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	writeJSON(w, http.StatusOK, snap.Models)
}

// parseNorm maps the wire name to a core.Norm ("" defaults to linf).
func parseNorm(name string) (core.Norm, error) {
	switch name {
	case "", "linf":
		return core.NormLinf, nil
	case "l2":
		return core.NormL2, nil
	}
	return 0, fmt.Errorf("unknown norm %q (want \"linf\" or \"l2\")", name)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if s.draining.Load() {
		s.metrics.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	start := time.Now()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	var req PredictRequest
	if r.Header.Get("Content-Type") == BlobContentType {
		if err := s.decodeBlobRequest(r, &req); err != nil {
			s.metrics.failed.Add(1)
			// Checksum/framing failures are the client's bytes being bad, not
			// a server fault: always a 400 with the integrity detail, never a
			// 500 and never a prediction on corrupt input.
			if integrity.IsIntegrityError(err) {
				s.writeError(w, http.StatusBadRequest, "blob request: payload failed integrity check: %v", err)
				return
			}
			s.writeError(w, http.StatusBadRequest, "blob request: %v", err)
			return
		}
	} else {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.metrics.failed.Add(1)
			s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
	}

	m, ok := s.model(req.Model)
	if !ok {
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	if len(req.Inputs) == 0 {
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, "no inputs")
		return
	}
	if len(req.Inputs) > s.cfg.QueueCap {
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusRequestEntityTooLarge,
			"%d samples exceed the admission queue capacity %d; split the request", len(req.Inputs), s.cfg.QueueCap)
		return
	}
	for i, row := range req.Inputs {
		if len(row) != m.inDim {
			s.metrics.failed.Add(1)
			s.writeError(w, http.StatusBadRequest, "input %d has %d features, model %q wants %d", i, len(row), m.name, m.inDim)
			return
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.metrics.failed.Add(1)
				s.writeError(w, http.StatusBadRequest, "input %d contains a non-finite value; no error bound holds", i)
				return
			}
		}
	}

	norm, err := parseNorm(req.Norm)
	if err != nil {
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.InputError < 0 || math.IsNaN(req.InputError) || math.IsInf(req.InputError, 0) {
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, "invalid input_error %v", req.InputError)
		return
	}
	quantBound, totalBound, budgetErr := m.checkBudget(req.Tolerance, norm, req.InputError)
	bound := &BoundInfo{
		Format:     m.art.Format.String(),
		Norm:       norm.String(),
		QuantBound: quantBound,
		TotalBound: totalBound,
		Tolerance:  req.Tolerance,
	}
	if budgetErr != nil {
		s.metrics.failed.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": fmt.Sprintf("predicted QoI bound %.6g exceeds tolerance %.6g (%s); loosen the tolerance, lower input_error, or use /v1/plan",
				totalBound, req.Tolerance, norm),
			"bound": bound,
		})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	outs, err := m.predict(ctx, req.Inputs)
	switch {
	case err == nil:
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		s.metrics.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.timedOut.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "request timed out after %s", s.cfg.RequestTimeout)
		return
	default:
		s.metrics.failed.Add(1)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.metrics.ok.Add(1)
	s.metrics.latency.observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, PredictResponse{
		Model:   m.name,
		Samples: len(outs),
		Outputs: outs,
		Bound:   bound,
	})
}

// decodeBlobRequest turns a compressed-container body into a
// PredictRequest: the container's grid dims give the sample layout
// (dims[0] = feature count, remaining dims = samples, feature-major as
// written by errprop.Compress), and the request parameters ride in the
// query string (model, tolerance, norm, input_error).
func (s *Server) decodeBlobRequest(r *http.Request, req *PredictRequest) error {
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	data, block, err := compress.Decode(blob)
	if err != nil {
		return fmt.Errorf("decoding container: %w", err)
	}
	dims := block.Dims
	if len(dims) == 0 {
		return fmt.Errorf("container has no dims")
	}
	features := dims[0]
	n := 1
	for _, d := range dims[1:] {
		n *= d
	}
	if features <= 0 || n <= 0 || features*n != len(data) {
		return fmt.Errorf("container dims %v inconsistent with %d values", dims, len(data))
	}
	q := r.URL.Query()
	req.Model = q.Get("model")
	req.Norm = q.Get("norm")
	for _, p := range []struct {
		key string
		dst *float64
	}{{"tolerance", &req.Tolerance}, {"input_error", &req.InputError}} {
		if raw := q.Get(p.key); raw != "" {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return fmt.Errorf("query %s=%q: %w", p.key, raw, err)
			}
			*p.dst = v
		}
	}
	// The container already certifies its reconstruction error: unless the
	// caller overrides it, the codec's achieved bound becomes the
	// request's input error, in the norm family of the blob's mode.
	if q.Get("input_error") == "" {
		req.InputError = compress.AbsTol(data, block.Mode, block.Tol)
		if q.Get("norm") == "" {
			switch block.Mode {
			case compress.L2, compress.RelL2:
				req.Norm = "l2"
			default:
				req.Norm = "linf"
			}
		}
	}
	req.Inputs = make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, features)
		for f := 0; f < features; f++ {
			row[f] = data[f*n+i]
		}
		req.Inputs[i] = row
	}
	return nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req PlanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	m, ok := s.model(req.Model)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	norm, err := parseNorm(req.Norm)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.QuantFraction == 0 {
		req.QuantFraction = 0.5
	}
	var formats []numfmt.Format
	for _, name := range req.Formats {
		f, err := numfmt.ParseFormat(name)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		formats = append(formats, f)
	}
	plan, err := core.PlanGraphSteps(m.art.Root, m.art.StepsFor, core.PlanRequest{
		Tol:           req.Tol,
		Norm:          norm,
		QuantFraction: req.QuantFraction,
		Formats:       formats,
		Conservative:  req.Conservative,
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "planning: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResponse{
		Model:          m.name,
		Norm:           norm.String(),
		Format:         plan.Format.String(),
		QuantBound:     plan.QuantBound,
		CompressBudget: plan.CompressBudget,
		InputTolL2:     finiteOrNil(plan.InputTolL2),
		InputTolLinf:   finiteOrNil(plan.InputTolLinf),
		TotalBound:     plan.TotalBound,
	})
}

// finiteOrNil returns nil for non-finite values so the JSON encoder
// never sees an Inf/NaN (which it cannot marshal).
func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
