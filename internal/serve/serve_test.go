package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/compress"
	_ "github.com/scidata/errprop/internal/compress/sz" // blob round-trip
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
)

// h2Net builds an untrained H2-sized MLP (9-50-50-9 tanh); weights are
// deterministic, which is all serving correctness tests need.
func h2Net(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.MLPSpec("h2", []int{9, 50, 50, 9}, nn.ActTanh, false).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// slowArtifact is sized so one forward pass costs tens of milliseconds
// even on the blocked engine kernels: the backpressure/timeout/drain
// tests need requests to observably pile up behind a busy worker, which
// only holds when service time dwarfs goroutine-scheduling jitter. Its
// build (spectral norms and step tables over ~35M weights) dominates
// those tests, so it is built once and shared: an artifact is immutable
// and any number of servers may register it.
func slowArtifact(t testing.TB) *artifact.Artifact {
	t.Helper()
	slowOnce.Do(func() {
		net, err := nn.MLPSpec("slow", []int{256, 4096, 4096, 4096, 8}, nn.ActReLU, false).Build(7)
		if err == nil {
			slowArt, err = artifact.Build(net, numfmt.FP32)
		}
		slowErr = err
	})
	if slowErr != nil {
		t.Fatal(slowErr)
	}
	return slowArt
}

var (
	slowOnce sync.Once
	slowArt  *artifact.Artifact
	slowErr  error
)

// buildArtifact compiles net into an in-memory artifact serving format f.
func buildArtifact(t testing.TB, net *nn.Network, f numfmt.Format) *artifact.Artifact {
	t.Helper()
	art, err := artifact.Build(net, f)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// registerNet serves net at format f the way errpropd serves a spec
// model: build the artifact in memory, then register it.
func registerNet(t testing.TB, s *Server, name string, net *nn.Network, f numfmt.Format) {
	t.Helper()
	if err := s.RegisterArtifact(name, buildArtifact(t, net, f)); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t testing.TB, cfg Config, name string, net *nn.Network, f numfmt.Format) (*Server, *httptest.Server) {
	t.Helper()
	return serveArtifact(t, cfg, name, buildArtifact(t, net, f))
}

func serveArtifact(t testing.TB, cfg Config, name string, art *artifact.Artifact) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.RegisterArtifact(name, art); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestPredictMatchesDirectForward(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 2}, "h2", net, numfmt.FP32)

	rng := rand.New(rand.NewSource(11))
	inputs := make([][]float64, 5)
	for i := range inputs {
		row := make([]float64, 9)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		inputs[i] = row
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict", PredictRequest{Model: "h2", Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Samples != len(inputs) || len(pr.Outputs) != len(inputs) {
		t.Fatalf("got %d/%d outputs for %d inputs", pr.Samples, len(pr.Outputs), len(inputs))
	}
	for i, row := range inputs {
		want := net.ForwardVec(row)
		for f := range want {
			// JSON float64 round-trips exactly; batching must not change
			// the computed function beyond association-order noise (none
			// here: columns are independent in every layer).
			if math.Abs(pr.Outputs[i][f]-want[f]) > 1e-12 {
				t.Fatalf("output[%d][%d] = %v, want %v", i, f, pr.Outputs[i][f], want[f])
			}
		}
	}
	if pr.Bound == nil || pr.Bound.Format != "fp32" {
		t.Fatalf("missing/wrong bound info: %+v", pr.Bound)
	}
}

func TestPerRequestErrorBudget(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 1}, "h2", net, numfmt.INT8)

	in := [][]float64{make([]float64, 9)}

	// An absurdly tight tolerance must be refused up front with 422.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict",
		PredictRequest{Model: "h2", Inputs: in, Tolerance: 1e-300})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("tight tolerance: status %d: %s", resp.StatusCode, body)
	}
	var rej struct {
		Error string     `json:"error"`
		Bound *BoundInfo `json:"bound"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Bound == nil || rej.Bound.TotalBound <= 0 {
		t.Fatalf("422 must carry the predicted bound: %s", body)
	}

	// A tolerance above the predicted bound is admitted, and the response
	// restates the honored contract.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/predict",
		PredictRequest{Model: "h2", Inputs: in, Tolerance: rej.Bound.TotalBound * 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loose tolerance: status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Bound == nil || pr.Bound.TotalBound > pr.Bound.Tolerance {
		t.Fatalf("served request violates its own contract: %+v", pr.Bound)
	}

	// A declared input error inflates the bound: the same tolerance that
	// fit quantization alone can become unsatisfiable.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/predict",
		PredictRequest{Model: "h2", Inputs: in, Tolerance: rej.Bound.TotalBound * 2, InputError: 1e9})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("input error must tighten the contract: status %d: %s", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8}, "h2", h2Net(t), numfmt.FP32)
	client := ts.Client()

	cases := []struct {
		name string
		req  PredictRequest
		want int
	}{
		{"unknown model", PredictRequest{Model: "nope", Inputs: [][]float64{make([]float64, 9)}}, http.StatusNotFound},
		{"no inputs", PredictRequest{Model: "h2"}, http.StatusBadRequest},
		{"wrong width", PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 3)}}, http.StatusBadRequest},
		{"bad norm", PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}, Norm: "l7"}, http.StatusBadRequest},
		{"oversized bulk", PredictRequest{Model: "h2", Inputs: make([][]float64, 9)}, http.StatusRequestEntityTooLarge},
	}
	for i := range cases[4].req.Inputs {
		cases[4].req.Inputs[i] = make([]float64, 9)
	}
	for _, tc := range cases {
		resp, body := postJSON(t, client, ts.URL+"/v1/predict", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

func TestBackpressure503WithRetryAfter(t *testing.T) {
	// One slow worker, batch size 1, a 2-deep queue: a burst must
	// overflow admission and be rejected rather than block.
	_, ts := serveArtifact(t, Config{Workers: 1, MaxBatch: 1, QueueCap: 2, RetryAfter: 2 * time.Second}, "slow", slowArtifact(t))

	in := PredictRequest{Model: "slow", Inputs: [][]float64{make([]float64, 256)}}
	const burst = 16
	var ok503, okOther atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
			if resp.StatusCode == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("503 without Retry-After header")
				}
				ok503.Add(1)
			} else {
				okOther.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok503.Load() == 0 {
		t.Fatalf("no request was rejected: queue should overflow (got %d non-503)", okOther.Load())
	}
	if okOther.Load() == 0 {
		t.Fatal("every request was rejected: admitted requests should still be served")
	}
}

func TestRequestTimeout504(t *testing.T) {
	_, ts := serveArtifact(t, Config{Workers: 1, MaxBatch: 1, QueueCap: 64, RequestTimeout: time.Millisecond}, "slow", slowArtifact(t))

	// Pile several requests on the single slow worker so later ones
	// exceed the 1ms deadline while queued.
	in := PredictRequest{Model: "slow", Inputs: [][]float64{make([]float64, 256)}}
	var timeouts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
			if resp.StatusCode == http.StatusGatewayTimeout {
				timeouts.Add(1)
			}
		}()
	}
	wg.Wait()
	if timeouts.Load() == 0 {
		t.Fatal("no request timed out despite a 1ms deadline on a multi-ms model")
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 4, QueueCap: 64})
	if err := s.RegisterArtifact("slow", slowArtifact(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Admit a few requests, then drain while they are in flight.
	in := PredictRequest{Model: "slow", Inputs: [][]float64{make([]float64, 256)}}
	const inflight = 4
	codes := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
			codes <- resp.StatusCode
		}()
	}
	// Wait until every request is observably admitted — the enqueue path
	// counts admissions atomically — instead of hoping a fixed sleep was
	// long enough for the HTTP handlers to reach the queue.
	m, ok := s.model("slow")
	if !ok {
		t.Fatal("model not registered")
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.admitted.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted before deadline", m.admitted.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	// After Close returns, new work is refused...
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict: status %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", hresp.StatusCode)
	}
	// ...and every admitted request completed normally.
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200", code)
		}
	}
	if err := s.RegisterArtifact("late", buildArtifact(t, h2Net(t), numfmt.FP32)); err == nil {
		t.Fatal("RegisterArtifact succeeded on a drained server")
	}
	s.Close() // idempotent
}

// TestDrainFlushesPartialBatch parks a request inside the batcher's
// coalescing wait (a 30s FlushInterval no test could sit out) and then
// drains: Close must flush the partial batch immediately via the queue
// close rather than wait for the flush timer, complete the in-flight
// request with 200, and reject new work with 503.
func TestDrainFlushesPartialBatch(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 32, FlushInterval: 30 * time.Second,
		QueueCap: 64, RequestTimeout: time.Minute})
	registerNet(t, s, "h2", h2Net(t), numfmt.FP32)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one item: enqueue is synchronous, so after it returns the item
	// is in the queue; once the queue length drops to zero the batcher has
	// pulled it and is (or is about to be) blocked coalescing.
	m, ok := s.model("h2")
	if !ok {
		t.Fatal("model not registered")
	}
	it := &item{ctx: context.Background(), x: make([]float64, 9), done: make(chan struct{})}
	if err := m.enqueue(it); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(m.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("batcher never pulled the parked item")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	s.Close()
	closeTook := time.Since(start)
	// Close must not sit out the 30s flush timer: the queue close is what
	// wakes fillBatch. Generous slack for a loaded CI box, but far below
	// the interval.
	if closeTook > 10*time.Second {
		t.Fatalf("Close took %v: drain waited on the flush timer", closeTook)
	}
	select {
	case <-it.done:
		if it.err != nil || len(it.out) == 0 {
			t.Fatalf("parked item finished err=%v out=%v, want a result", it.err, it.out)
		}
	default:
		t.Fatal("parked item still unresolved after Close returned")
	}
	in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict: status %d, want 503", resp.StatusCode)
	}
}

func TestBlobPredict(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 2}, "h2", net, numfmt.FP32)

	// A 9-feature field of 12 samples in feature-major layout, the same
	// layout errprop.Compress writes.
	const n = 12
	rng := rand.New(rand.NewSource(3))
	field := make([]float64, 9*n)
	for i := range field {
		field[i] = math.Sin(float64(i)/7) + 0.01*rng.NormFloat64()
	}
	const tol = 1e-4
	blob, err := compress.Encode("sz", field, []int{9, n}, compress.AbsLinf, tol)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/predict?model=h2&norm=linf&input_error=%g&tolerance=1e6", ts.URL, tol)
	resp, err := ts.Client().Post(url, BlobContentType, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pr.Samples != n {
		t.Fatalf("got %d samples, want %d", pr.Samples, n)
	}
	if pr.Bound == nil || pr.Bound.TotalBound <= pr.Bound.QuantBound {
		t.Fatalf("declared input error must enter the bound: %+v", pr.Bound)
	}

	// The served outputs must match a direct forward pass over the
	// decompressed reconstruction (the values the codec guarantees).
	recon, _, err := compress.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := make([]float64, 9)
		for f := 0; f < 9; f++ {
			row[f] = recon[f*n+i]
		}
		want := net.ForwardVec(row)
		for f := range want {
			if math.Abs(pr.Outputs[i][f]-want[f]) > 1e-12 {
				t.Fatalf("blob output[%d][%d] = %v, want %v", i, f, pr.Outputs[i][f], want[f])
			}
		}
	}

	// Corrupt blobs are a 400, not a panic.
	resp2, err := ts.Client().Post(url, BlobContentType, bytes.NewReader(blob[:8]))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated blob: status %d, want 400", resp2.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, "h2", h2Net(t), numfmt.FP16)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/plan",
		PlanRequest{Model: "h2", Tol: 1e-2, Norm: "linf", QuantFraction: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var plan PlanResponse
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Format == "" || plan.TotalBound > 1e-2 {
		t.Fatalf("implausible plan: %+v", plan)
	}
	if plan.InputTolLinf == nil || *plan.InputTolLinf <= 0 {
		t.Fatalf("plan must grant a positive input tolerance: %+v", plan)
	}

	// The planner's own validation errors surface as 400s.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/plan", PlanRequest{Model: "h2", Tol: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative tolerance: status %d: %s", resp.StatusCode, body)
	}
}

func TestMetricsReconcile(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 256}, "h2", h2Net(t), numfmt.FP32)

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	var sentOK atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				row := make([]float64, 9)
				for f := range row {
					row[f] = rng.NormFloat64()
				}
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict",
					PredictRequest{Model: "h2", Inputs: [][]float64{row}})
				if resp.StatusCode == http.StatusOK {
					sentOK.Add(1)
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	snap := s.Metrics()
	total := int64(clients * perClient)
	if snap.Requests != total {
		t.Fatalf("requests_total %d != client-side %d", snap.Requests, total)
	}
	if snap.OK != sentOK.Load() {
		t.Fatalf("ok_total %d != client-side 200s %d", snap.OK, sentOK.Load())
	}
	if got := snap.OK + snap.Rejected + snap.TimedOut + snap.Failed; got != snap.Requests {
		t.Fatalf("outcome counters %d do not sum to requests_total %d", got, snap.Requests)
	}
	if snap.Samples != snap.OK { // one sample per request here
		t.Fatalf("samples_total %d != ok_total %d", snap.Samples, snap.OK)
	}
	if snap.Batches == 0 || snap.Batches > snap.Samples {
		t.Fatalf("implausible batches_total %d for %d samples", snap.Batches, snap.Samples)
	}
	ms, ok := snap.Models["h2"]
	if !ok || ms.Requests != snap.OK || ms.Samples != snap.Samples {
		t.Fatalf("per-model counters diverge: %+v vs ok=%d samples=%d", ms, snap.OK, snap.Samples)
	}
	if snap.LatencyP50ms <= 0 || snap.LatencyP99ms < snap.LatencyP50ms {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", snap.LatencyP50ms, snap.LatencyP99ms)
	}

	// The /metrics endpoint serves the same snapshot shape.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Requests != snap.Requests {
		t.Fatalf("/metrics requests_total %d != snapshot %d", wire.Requests, snap.Requests)
	}
}

func TestHealthzAndModels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, "h2", h2Net(t), numfmt.BF16)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Models) != 1 || h.Models[0] != "h2" {
		t.Fatalf("healthz payload: %+v", h)
	}

	mresp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var models map[string]ModelStats
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	st, ok := models["h2"]
	if !ok || st.Format != "bf16" || st.InDim != 9 || st.OutDim != 9 || st.QuantBound <= 0 {
		t.Fatalf("model stats: %+v", models)
	}
}

// TestQuantizedServingMatchesQuantizedNet pins the serving path to
// quant.Quantize semantics: replicas must compute exactly what the
// quantized copy computes, not the original.
func TestQuantizedServingMatchesQuantizedNet(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 2}, "h2", net, numfmt.FP16)

	qnet, err := quant.Quantize(net, numfmt.FP16)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 9)
	for i := range row {
		row[i] = 0.3 * float64(i)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict", PredictRequest{Model: "h2", Inputs: [][]float64{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	want := qnet.ForwardVec(row)
	for f := range want {
		if math.Abs(pr.Outputs[0][f]-want[f]) > 1e-12 {
			t.Fatalf("quantized serving output[%d] = %v, want %v", f, pr.Outputs[0][f], want[f])
		}
	}
}
