package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/numfmt"
)

// blobContentType mirrors serve.BlobContentType (the gateway routes on
// the header without importing the serve package).
const blobContentType = "application/x-errprop-blob"

// Handler returns the gateway's HTTP surface. It mirrors a backend's
// surface — a client pointed at the gateway instead of a single daemon
// needs no changes.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/models", g.handleModels)
	mux.HandleFunc("POST /v1/predict", g.handlePredict)
	mux.HandleFunc("POST /v1/plan", g.handlePlan)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore droppederr response-write failure, not a codec bound; the client is gone
	_ = enc.Encode(v)
}

// writeError emits a gateway-generated error: always JSON, always
// typed, with Retry-After on 503s. The fields name what failed so a
// client (or the fault drill) can distinguish "the gateway broke" from
// "the fleet is momentarily short a backend".
func (g *Gateway) writeError(w http.ResponseWriter, status int, model, detail string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	body := map[string]string{"error": detail, "source": "gateway"}
	if model != "" {
		body["model"] = model
	}
	writeJSON(w, status, body)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := g.Backends()
	ready := false
	for _, b := range backends {
		if b.Ready && !b.Draining {
			ready = true
		}
	}
	status := "ok"
	if !ready {
		status = "degraded"
	}
	// The gateway's /healthz is its *liveness*: 200 as long as the
	// process can answer. Routability is the ready field, per backend
	// and overall — a gateway over a dead fleet is alive and degraded.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"ready":    ready,
		"backends": backends,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Metrics())
}

// handlePredict routes one inference request: extract the model name
// (JSON body or, for blob bodies, the query string), consistent-hash
// (model, body) to a backend, and relay with bounded retry.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		g.metrics.failed.Add(1)
		g.writeError(w, http.StatusBadRequest, "", fmt.Sprintf("reading request body: %v", err))
		return
	}
	var model string
	if r.Header.Get("Content-Type") == blobContentType {
		model = r.URL.Query().Get("model")
	} else {
		var peek struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal(body, &peek); err != nil {
			g.metrics.failed.Add(1)
			g.writeError(w, http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", err))
			return
		}
		model = peek.Model
	}
	if model == "" {
		g.metrics.failed.Add(1)
		g.writeError(w, http.StatusBadRequest, "", "request names no model")
		return
	}
	key := hashKey(model) ^ hashBytes(body)
	g.relay(w, r, model, key, body)
}

// handlePlan serves /v1/plan: from the model's pinned artifact when the
// registry pins one, otherwise relayed to a backend.
func (g *Gateway) handlePlan(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		g.metrics.failed.Add(1)
		g.writeError(w, http.StatusBadRequest, "", fmt.Sprintf("reading request body: %v", err))
		return
	}
	var peek struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		g.metrics.failed.Add(1)
		g.writeError(w, http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", err))
		return
	}
	if peek.Model == "" {
		g.metrics.failed.Add(1)
		g.writeError(w, http.StatusBadRequest, "", "request names no model")
		return
	}
	// A model pinned to a verified artifact is planned gateway-side: the
	// artifact carries the error-flow graph and build-time step tables,
	// so the answer is computed here, byte-identical to a backend's, with
	// zero backend round-trips.
	if art, ok := g.artifactFor(peek.Model); ok {
		g.planFromArtifact(w, art, peek.Model, body)
		return
	}
	g.relay(w, r, peek.Model, hashKey(peek.Model)^hashBytes(body), body)
}

// gwPlanRequest and gwPlanResponse mirror the backend's /v1/plan wire
// structs field for field (the gateway deliberately does not import
// internal/serve): an artifact-computed plan response must be
// byte-identical to the answer a backend would have produced.
type gwPlanRequest struct {
	Model         string   `json:"model"`
	Tol           float64  `json:"tol"`
	Norm          string   `json:"norm,omitempty"`
	QuantFraction float64  `json:"quant_fraction,omitempty"`
	Conservative  bool     `json:"conservative,omitempty"`
	Formats       []string `json:"formats,omitempty"`
}

type gwPlanResponse struct {
	Model          string   `json:"model"`
	Norm           string   `json:"norm"`
	Format         string   `json:"format"`
	QuantBound     float64  `json:"quant_bound"`
	CompressBudget float64  `json:"compress_budget"`
	InputTolL2     *float64 `json:"input_tol_l2"`
	InputTolLinf   *float64 `json:"input_tol_linf"`
	TotalBound     float64  `json:"total_bound"`
}

// localError mirrors a backend's error body shape ({"error": ...}, no
// gateway source marker) so artifact-local answers stay byte-compatible
// with relayed ones on every path.
func localError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// planFromArtifact answers /v1/plan from a pinned artifact's error-flow
// graph and build-time step tables, mirroring the backend handler's
// semantics — defaults, error texts, status codes — exactly.
func (g *Gateway) planFromArtifact(w http.ResponseWriter, art *artifact.Artifact, model string, body []byte) {
	var req gwPlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		g.metrics.failed.Add(1)
		localError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	norm, err := parseGWNorm(req.Norm)
	if err != nil {
		g.metrics.failed.Add(1)
		localError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.QuantFraction == 0 {
		req.QuantFraction = 0.5
	}
	var formats []numfmt.Format
	for _, name := range req.Formats {
		f, err := numfmt.ParseFormat(name)
		if err != nil {
			g.metrics.failed.Add(1)
			localError(w, http.StatusBadRequest, "%v", err)
			return
		}
		formats = append(formats, f)
	}
	plan, err := core.PlanGraphSteps(art.Root, art.StepsFor, core.PlanRequest{
		Tol:           req.Tol,
		Norm:          norm,
		QuantFraction: req.QuantFraction,
		Formats:       formats,
		Conservative:  req.Conservative,
	})
	if err != nil {
		g.metrics.failed.Add(1)
		localError(w, http.StatusBadRequest, "planning: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, gwPlanResponse{
		Model:          model,
		Norm:           norm.String(),
		Format:         plan.Format.String(),
		QuantBound:     plan.QuantBound,
		CompressBudget: plan.CompressBudget,
		InputTolL2:     gwFiniteOrNil(plan.InputTolL2),
		InputTolLinf:   gwFiniteOrNil(plan.InputTolLinf),
		TotalBound:     plan.TotalBound,
	})
	g.metrics.ok.Add(1)
}

// parseGWNorm mirrors the backend's norm parsing ("" defaults to linf).
func parseGWNorm(name string) (core.Norm, error) {
	switch name {
	case "", "linf":
		return core.NormLinf, nil
	case "l2":
		return core.NormL2, nil
	}
	return 0, fmt.Errorf("unknown norm %q (want \"linf\" or \"l2\")", name)
}

// gwFiniteOrNil mirrors the backend's null encoding of non-finite
// tolerances.
func gwFiniteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// gwModelStats mirrors the backend's per-model /v1/models entry. An
// artifact-derived entry carries the static contract fields — format,
// dims, certified bound, checksum identity — with zeroed traffic
// counters (the gateway answers without consulting any backend).
type gwModelStats struct {
	Format     string  `json:"format"`
	InDim      int     `json:"in_dim"`
	OutDim     int     `json:"out_dim"`
	QuantBound float64 `json:"quant_bound"`
	Checksum   string  `json:"checksum"`
	Requests   int64   `json:"requests_total"`
	Samples    int64   `json:"samples_total"`
	Admitted   int64   `json:"admitted_total"`
	QueueDepth int     `json:"queue_depth"`
}

// handleModels serves /v1/models. When the pinned artifacts cover every
// model the ready fleet advertises, it answers gateway-side from their
// static contract fields; otherwise one backend answers (identical
// static fields fleet-wide, with that backend's own counters), so the
// list never omits a model the fleet serves.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	if arts := g.pinnedFleet(); arts != nil {
		out := make(map[string]gwModelStats, len(arts))
		for name, a := range arts {
			out[name] = gwModelStats{
				Format:     a.Format.String(),
				InDim:      a.Net.InputDim,
				OutDim:     a.Program.OutDim,
				QuantBound: a.QuantBound,
				Checksum:   a.Checksum,
			}
		}
		writeJSON(w, http.StatusOK, out)
		g.metrics.ok.Add(1)
		return
	}
	g.relay(w, r, "", hashKey("models"), nil)
}

// relay sends the request to the fleet with bounded retry and copies
// the chosen backend's response to the client verbatim. model may be
// empty for model-agnostic endpoints (/v1/models).
//
// Retry policy: connection errors and 503s are retried — both mean "this
// backend cannot answer right now" and both are safe to re-send because
// backend responses are bit-identical for the same request bytes. Any
// other response, including 4xx and non-503 5xx, is relayed as-is:
// those are deterministic answers, and re-asking a different backend
// would produce the same bytes.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, model string, key uint64, body []byte) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	var lastDetail string
	attempt := 0
	for attempt < g.cfg.MaxAttempts {
		b := g.pickBackend(model, key)
		if b == nil {
			// No eligible backend at all: classify and fail loudly now —
			// waiting out retries cannot help routing when the ring has
			// nothing to offer.
			g.failNoBackend(w, model, lastDetail)
			return
		}
		attempt++
		b.requests.Add(1)
		resp, err := g.send(ctx, b, r, body)
		now := time.Now()
		if err != nil {
			// Connection-level failure: dial refused, reset mid-flight,
			// timeout. The backend may be mid-SIGKILL; count it against the
			// breaker and walk on.
			b.failures.Add(1)
			b.breaker.failure(now)
			lastDetail = fmt.Sprintf("backend %s: %v", b.name, err)
			if ctx.Err() != nil {
				break
			}
			if attempt < g.cfg.MaxAttempts {
				if !g.backoffWait(ctx, key, attempt, 0) {
					break
				}
				g.metrics.retries.Add(1)
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Backend is shedding or draining; honor its Retry-After as the
			// backoff floor (capped at BackoffMax) and try elsewhere.
			retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			b.failures.Add(1)
			b.breaker.failure(now)
			lastDetail = fmt.Sprintf("backend %s: 503", b.name)
			if attempt < g.cfg.MaxAttempts {
				if !g.backoffWait(ctx, key, attempt, retryAfter) {
					break
				}
				g.metrics.retries.Add(1)
			}
			continue
		}
		// An answer. Relay it byte for byte.
		b.proxiedOK.Add(1)
		b.breaker.success()
		g.relayResponse(w, resp)
		return
	}
	// Attempts exhausted (or the request deadline consumed them).
	g.metrics.failed.Add(1)
	if ctx.Err() != nil {
		g.writeError(w, http.StatusGatewayTimeout, model,
			fmt.Sprintf("request timed out after %s (%d attempts; last: %s)", g.cfg.RequestTimeout, attempt, lastDetail))
		return
	}
	g.writeError(w, http.StatusBadGateway, model,
		fmt.Sprintf("no backend answered after %d attempts; last: %s", attempt, lastDetail))
}

// pickBackend walks the ring from key and returns the first eligible
// backend, or nil.
func (g *Gateway) pickBackend(model string, key uint64) *backend {
	now := time.Now()
	for _, b := range g.ringOrder(key) {
		if b.eligible(model, now) {
			return b
		}
	}
	return nil
}

// failNoBackend answers when routing found nothing eligible: a typed
// 404 when the fleet is healthy but nobody serves the model, a typed
// 503 naming the model otherwise. Never a hang, never a bare 500.
func (g *Gateway) failNoBackend(w http.ResponseWriter, model, lastDetail string) {
	g.metrics.failed.Add(1)
	g.mu.RLock()
	list := orderedBackends(g.backends)
	g.mu.RUnlock()
	if len(list) == 0 {
		g.writeError(w, http.StatusServiceUnavailable, model, "no backends configured")
		return
	}
	anyReady, advertised := false, false
	for _, b := range list {
		b.mu.Lock()
		if b.ready && !b.draining {
			anyReady = true
		}
		if b.models[model] {
			advertised = true
		}
		b.mu.Unlock()
	}
	switch {
	case model != "" && anyReady && !advertised:
		g.writeError(w, http.StatusNotFound, model, fmt.Sprintf("unknown model %q: no backend advertises it", model))
	case model != "":
		detail := fmt.Sprintf("model %q: all backends unavailable", model)
		if lastDetail != "" {
			detail += "; last: " + lastDetail
		}
		g.writeError(w, http.StatusServiceUnavailable, model, detail)
	default:
		g.writeError(w, http.StatusServiceUnavailable, "", "all backends unavailable")
	}
}

// send issues one proxied attempt.
func (g *Gateway) send(ctx context.Context, b *backend, r *http.Request, body []byte) (*http.Response, error) {
	u := "http://" + b.addr + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return g.client.Do(req)
}

// relayResponse copies a backend response to the client verbatim —
// status, content type, Retry-After, body bytes — so a gateway-fronted
// fleet answers bit-identically to a single daemon.
func (g *Gateway) relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		g.metrics.relayed5xx.Add(1)
	} else {
		g.metrics.ok.Add(1)
	}
	ct := resp.Header.Get("Content-Type")
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// parseRetryAfter reads a Retry-After header's delay-seconds form.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoffWait sleeps the exponential backoff before retry `attempt`
// (1-based: the wait before the second attempt is attempt 1), bounded
// by BackoffMax and the request context. retryAfterFloor, when > 0, is
// the backend's own Retry-After hint and raises the wait (still capped).
//
// The jitter is deterministic: a pure function of (Config.Seed, request
// key, attempt) via detrand, so a replayed fault drill waits the exact
// same schedule — reproducibility is part of the robustness contract.
func (g *Gateway) backoffWait(ctx context.Context, key uint64, attempt int, retryAfterFloor time.Duration) bool {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := g.cfg.BackoffBase << shift
	if d > g.cfg.BackoffMax || d <= 0 {
		d = g.cfg.BackoffMax
	}
	// Jitter in [0.5, 1.0]x: decorrelates a thundering herd of retries
	// without ever waiting longer than the undithered backoff.
	j := jitterFor(g.cfg.Seed, key, attempt)
	d = time.Duration(float64(d) * (0.5 + 0.5*j))
	if retryAfterFloor > d {
		d = retryAfterFloor
	}
	if d > g.cfg.BackoffMax {
		d = g.cfg.BackoffMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// jitterFor draws the deterministic jitter sample for (seed, key,
// attempt).
func jitterFor(seed, key uint64, attempt int) float64 {
	s := detrand.New(seed ^ (key * 0x9e3779b97f4a7c15) ^ (uint64(attempt) << 32))
	return s.Float64()
}
