package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// holdModel stops the named model's workers from taking work until the
// test ends — the cheap stand-in for a busy engine that backpressure,
// timeout and drain tests queue requests behind.
func holdModel(t *testing.T, s *Server, name string) *model {
	t.Helper()
	m, ok := s.model(name)
	if !ok {
		t.Fatalf("model %q not registered", name)
	}
	holdWorkers(m, true)
	t.Cleanup(func() { holdWorkers(m, false) })
	return m
}

// holdWorkers sets or clears the model's worker hold.
func holdWorkers(m *model, on bool) {
	m.mu.Lock()
	m.held = on
	m.mu.Unlock()
	m.cond.Broadcast()
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply is one predict response as seen by a client.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// predictAsync posts req from its own goroutine and delivers the reply;
// a transport error is reported with t.Error and delivered as code 0.
func predictAsync(t *testing.T, ts *httptest.Server, req PredictRequest) <-chan reply {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan reply, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		out <- reply{code: resp.StatusCode, header: resp.Header, body: body}
	}()
	return out
}

// randomInputs draws n seeded 9-feature rows.
func randomInputs(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, 9)
		for f := range rows[i] {
			rows[i][f] = rng.NormFloat64()
		}
	}
	return rows
}

// checkOutputs asserts a 200 reply holds net's exact outputs on inputs.
func checkOutputs(t *testing.T, r reply, net *nn.Network, inputs [][]float64) {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("status %d: %s", r.code, r.body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(r.body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Outputs) != len(inputs) {
		t.Fatalf("got %d outputs for %d inputs", len(pr.Outputs), len(inputs))
	}
	for i, row := range inputs {
		want := net.ForwardVec(row)
		for f := range want {
			if pr.Outputs[i][f] != want[f] {
				t.Fatalf("output[%d][%d] = %v, want %v", i, f, pr.Outputs[i][f], want[f])
			}
		}
	}
}

// histCount returns the count of the bucket with upper edge le.
func histCount(t *testing.T, hist []Bucket, le string) int64 {
	t.Helper()
	for _, b := range hist {
		if b.LE == le {
			return b.Count
		}
	}
	t.Fatalf("no bucket le=%s in %+v", le, hist)
	return 0
}

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
	// A held worker, batch size 1, a 2-deep queue: a burst must overflow
	// admission and be rejected at once rather than block.
	s, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 1, QueueCap: 2, RetryAfter: 2 * time.Second}, "h2", h2Net(t), numfmt.FP32)
	m := holdModel(t, s, "h2")

	in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
	const burst, queueCap = 16, 2
	replies := make([]<-chan reply, burst)
	for i := range replies {
		replies[i] = predictAsync(t, ts, in)
	}
	// Nothing leaves the queue while the worker is held, so exactly
	// queueCap requests are admitted and every other one is shed.
	waitUntil(t, "the burst to be admitted or shed", func() bool {
		return m.admitted.Load() == queueCap && s.metrics.rejected.Load() == burst-queueCap
	})
	holdWorkers(m, false)
	var ok, busy int
	for _, c := range replies {
		r := <-c
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			if r.header.Get("Retry-After") != "2" {
				t.Errorf("503 with Retry-After %q, want \"2\"", r.header.Get("Retry-After"))
			}
			busy++
		default:
			t.Errorf("unexpected status %d: %s", r.code, r.body)
		}
	}
	if ok != queueCap || busy != burst-queueCap {
		t.Fatalf("%d served and %d shed, want %d and %d", ok, busy, queueCap, burst-queueCap)
	}
}

// TestRequestTimeout504 queues requests behind a held worker until they
// outlive their deadline: each must be a 504, and none of them may run
// once the worker is let go.
func TestRequestTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 1, QueueCap: 64, RequestTimeout: 100 * time.Millisecond}, "h2", h2Net(t), numfmt.FP32)
	m := holdModel(t, s, "h2")

	in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
	const queued = 8
	replies := make([]<-chan reply, queued)
	for i := range replies {
		replies[i] = predictAsync(t, ts, in)
	}
	for _, c := range replies {
		if r := <-c; r.code != http.StatusGatewayTimeout {
			t.Fatalf("queued request finished with %d, want 504: %s", r.code, r.body)
		}
	}
	holdWorkers(m, false)
	// The FIFO hands the expired requests to the worker before this one;
	// it drops them unexecuted.
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release predict: status %d: %s", resp.StatusCode, body)
	}
	snap := s.Metrics()
	if snap.TimedOut != queued || snap.Samples != 1 || snap.Batches != 1 {
		t.Fatalf("timedout_total %d, samples_total %d, batches_total %d; want %d, 1, 1",
			snap.TimedOut, snap.Samples, snap.Batches, queued)
	}
}

// drainWhileHeld holds the model's workers, queues n single-sample
// requests, and starts Close. It returns once the server is draining,
// with every request admitted and none executed; closed is closed when
// Close returns.
func drainWhileHeld(t *testing.T, s *Server, ts *httptest.Server, name string, n int) (replies []<-chan reply, closed <-chan struct{}) {
	t.Helper()
	m := holdModel(t, s, name)
	in := PredictRequest{Model: name, Inputs: [][]float64{make([]float64, 9)}}
	for i := 0; i < n; i++ {
		replies = append(replies, predictAsync(t, ts, in))
	}
	waitUntil(t, "every request to be admitted", func() bool { return m.admitted.Load() == int64(n) })
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	waitUntil(t, "the drain to start", s.Draining)
	return replies, done
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 4, QueueCap: 64})
	registerNet(t, s, "h2", h2Net(t), numfmt.FP32)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Admit a few requests, then drain while they wait on the worker.
	const inflight = 4
	replies, closed := drainWhileHeld(t, s, ts, "h2", inflight)

	// While draining, new work is refused...
	in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict: status %d, want 503", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", hresp.StatusCode)
	}
	// ...and Close waits for the admitted work.
	select {
	case <-closed:
		t.Fatal("Close returned with admitted requests still queued")
	default:
	}
	m, _ := s.model("h2")
	holdWorkers(m, false)
	<-closed
	for _, c := range replies {
		if r := <-c; r.code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200: %s", r.code, r.body)
		}
	}
	if err := s.RegisterArtifact("late", buildArtifact(t, h2Net(t), numfmt.FP32)); err == nil {
		t.Fatal("RegisterArtifact succeeded on a drained server")
	}
	s.Close() // idempotent
}

// TestDrainFlushesPartialBatch queues a partial batch behind a busy
// worker and drains: Close must run the queued samples as they stand —
// one batch of 3 at MaxBatch 32, never waiting for the batch to fill —
// complete every request with 200, and refuse new work with 503.
func TestDrainFlushesPartialBatch(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 32, QueueCap: 64, RequestTimeout: time.Minute})
	registerNet(t, s, "h2", h2Net(t), numfmt.FP32)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const queued = 3
	replies, closed := drainWhileHeld(t, s, ts, "h2", queued)
	m, _ := s.model("h2")
	holdWorkers(m, false)
	<-closed
	for _, c := range replies {
		if r := <-c; r.code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200: %s", r.code, r.body)
		}
	}
	snap := s.Metrics()
	if snap.Batches != 1 || snap.Samples != queued || histCount(t, snap.BatchSizeHist, "4") != 1 {
		t.Fatalf("drain ran %d batches of %d samples (hist %+v), want one batch of %d",
			snap.Batches, snap.Samples, snap.BatchSizeHist, queued)
	}
	in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict: status %d, want 503", resp.StatusCode)
	}
}

// TestQueuedRequestsCoalesce: single-sample requests that queue up while
// the only worker is busy run as one batch once it frees, with outputs
// bit-identical to a direct forward pass.
func TestQueuedRequestsCoalesce(t *testing.T) {
	net := h2Net(t)
	s, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 32}, "h2", net, numfmt.FP32)
	m := holdModel(t, s, "h2")

	const n = 8
	inputs := randomInputs(5, n)
	replies := make([]<-chan reply, n)
	for i := range replies {
		replies[i] = predictAsync(t, ts, PredictRequest{Model: "h2", Inputs: inputs[i : i+1]})
	}
	waitUntil(t, "every request to be admitted", func() bool { return m.admitted.Load() == n })
	holdWorkers(m, false)
	for i, c := range replies {
		checkOutputs(t, <-c, net, inputs[i:i+1])
	}
	snap := s.Metrics()
	if snap.Batches != 1 || histCount(t, snap.BatchSizeHist, "8") != 1 {
		t.Fatalf("%d queued requests ran as %d batches (hist %+v), want one batch of %d",
			n, snap.Batches, snap.BatchSizeHist, n)
	}
}

// TestLargeRequestSplitsIntoFullBatches: a request enters the FIFO whole,
// so 256 samples at MaxBatch 32 run as exactly 8 full batches, spread
// over the worker pool, with the same outputs as a direct forward pass.
func TestLargeRequestSplitsIntoFullBatches(t *testing.T) {
	net := h2Net(t)
	s, ts := newTestServer(t, Config{MaxBatch: 32}, "h2", net, numfmt.FP32)

	inputs := randomInputs(9, 256)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict", PredictRequest{Model: "h2", Inputs: inputs})
	checkOutputs(t, reply{code: resp.StatusCode, body: body}, net, inputs)
	snap := s.Metrics()
	if snap.Batches != 8 || snap.Samples != 256 || histCount(t, snap.BatchSizeHist, "32") != 8 {
		t.Fatalf("256 samples ran as %d batches of %d samples (hist %+v), want 8 batches of 32",
			snap.Batches, snap.Samples, snap.BatchSizeHist)
	}
}

// TestAdmissionAllOrNothing: two requests whose samples together exceed
// QueueCap get one 200 and one 503, and no sample of the rejected one is
// executed.
func TestAdmissionAllOrNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8}, "h2", h2Net(t), numfmt.FP32)
	m := holdModel(t, s, "h2")

	const n = 5
	a := predictAsync(t, ts, PredictRequest{Model: "h2", Inputs: randomInputs(1, n)})
	b := predictAsync(t, ts, PredictRequest{Model: "h2", Inputs: randomInputs(2, n)})
	waitUntil(t, "one request admitted and one shed", func() bool {
		return m.admitted.Load() == n && s.metrics.rejected.Load() == 1
	})
	holdWorkers(m, false)
	codes := map[int]int{}
	for _, c := range []<-chan reply{a, b} {
		codes[(<-c).code]++
	}
	if codes[http.StatusOK] != 1 || codes[http.StatusServiceUnavailable] != 1 {
		t.Fatalf("status codes %v, want one 200 and one 503", codes)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	ms := snap.Models["h2"]
	if snap.Samples != n || ms.Admitted != n || snap.QueueDepth != 0 {
		t.Fatalf("samples_total %d, admitted_total %d, queue_depth %d; want %d, %d, 0",
			snap.Samples, ms.Admitted, snap.QueueDepth, n, n)
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
	// Every executed request waited in the queue exactly once.
	var waits int64
	for _, b := range snap.QueueWaitHistMS {
		waits += b.Count
	}
	if waits != snap.OK || snap.QueueWaitP50ms <= 0 || snap.QueueWaitP99ms < snap.QueueWaitP50ms {
		t.Fatalf("queue-wait histogram holds %d waits for %d requests (p50=%v p99=%v)",
			waits, snap.OK, snap.QueueWaitP50ms, snap.QueueWaitP99ms)
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
