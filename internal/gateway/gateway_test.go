package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/serve"
)

// The gateway deliberately does not import internal/serve; its tests
// do, standing up real backends on real listeners so every proxied
// byte crosses a TCP connection the way it would in production.

// testProc is one in-process backend: a serve.Server behind a real
// net.Listener, killable and restartable on the same port (the drill's
// SIGKILL stand-in: Close resets in-flight connections and refuses new
// ones, exactly what a killed process's kernel does).
type testProc struct {
	t    *testing.T
	name string
	addr string
	srv  *serve.Server
	hsrv *http.Server
}

func h2Net(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.MLPSpec("h2", []int{9, 50, 50, 9}, nn.ActTanh, false).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// startProc boots a backend serving model "h2" on addr ("127.0.0.1:0"
// picks a port; pass a previous proc's addr to "restart" it).
func startProc(t *testing.T, name, addr string) *testProc {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1, RetryAfter: time.Second})
	if err := s.RegisterArtifact("h2", buildH2Artifact(t, numfmt.FP32)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &testProc{t: t, name: name, addr: ln.Addr().String(), srv: s, hsrv: &http.Server{Handler: s.Handler()}}
	go p.hsrv.Serve(ln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the test owns the lifecycle
	t.Cleanup(p.kill)
	t.Cleanup(s.Close)
	return p
}

// kill is the SIGKILL stand-in: the listener closes and every open
// connection resets. Idempotent.
func (p *testProc) kill() {
	//lint:ignore droppederr Close error on an already-closed server is the idempotent path
	_ = p.hsrv.Close()
}

func (p *testProc) backend(weight int) Backend {
	return Backend{Name: p.name, Addr: p.addr, Weight: weight}
}

// fastCfg probes aggressively so tests converge in milliseconds, with
// retry/backoff tight enough that MaxAttempts resolves quickly.
func fastCfg() Config {
	return Config{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		MaxAttempts:      4,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		RequestTimeout:   10 * time.Second,
		RetryAfter:       time.Second,
		Seed:             42,
	}
}

func newTestGateway(t *testing.T, cfg Config, procs ...*testProc) *Gateway {
	t.Helper()
	g := New(cfg)
	t.Cleanup(g.Close)
	list := make([]Backend, len(procs))
	for i, p := range procs {
		list[i] = p.backend(1)
	}
	if err := g.SetBackends(list); err != nil {
		t.Fatal(err)
	}
	if len(procs) > 0 {
		if err := g.WaitReady("h2", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// gwServer mounts the gateway handler on a real listener and returns
// its base URL.
func gwServer(t *testing.T, g *Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: g.Handler()}
	go hs.Serve(ln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the test owns the lifecycle
	t.Cleanup(func() {
		//lint:ignore droppederr shutdown of a test server
		_ = hs.Close()
	})
	return "http://" + ln.Addr().String()
}

func predictBody(t testing.TB, scale float64) []byte {
	t.Helper()
	in := make([]float64, 9)
	for i := range in {
		in[i] = scale * float64(i+1) / 10
	}
	raw, err := json.Marshal(serve.PredictRequest{Model: "h2", Inputs: [][]float64{in}})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func post(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestGatewayBitIdenticalToBackend: the core retry-safety invariant
// made visible — a predict through the gateway returns the exact bytes
// the backend returns when asked directly, whichever backend answers.
func TestGatewayBitIdenticalToBackend(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	p1 := startProc(t, "b1", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0, p1)
	base := gwServer(t, g)

	for i := 0; i < 20; i++ {
		body := predictBody(t, float64(i+1))
		// Reference: the backend asked directly.
		refResp, ref := post(t, "http://"+p0.addr+"/v1/predict", body)
		if refResp.StatusCode != http.StatusOK {
			t.Fatalf("reference predict: status %d: %s", refResp.StatusCode, ref)
		}
		gwResp, got := post(t, base+"/v1/predict", body)
		if gwResp.StatusCode != http.StatusOK {
			t.Fatalf("gateway predict %d: status %d: %s", i, gwResp.StatusCode, got)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("gateway predict %d not bit-identical to direct backend:\n gw  %s\n ref %s", i, got, ref)
		}
	}
	m := g.Metrics()
	if m.OK != 20 {
		t.Fatalf("ok_total %d, want 20", m.OK)
	}
}

// TestGatewayRetriesAroundDeadBackend: with probes effectively off (one
// initial sweep), a killed backend stays "ready" in the gateway's eyes
// and requests routed to it must recover by retrying onto the survivor
// — and still return bit-identical bytes.
func TestGatewayRetriesAroundDeadBackend(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	p1 := startProc(t, "b1", "127.0.0.1:0")
	cfg := fastCfg()
	cfg.ProbeInterval = time.Hour // initial probe only; no recovery sweep
	g := newTestGateway(t, cfg, p0, p1)
	base := gwServer(t, g)

	p1.kill()
	sawRetry := false
	for i := 0; i < 40; i++ {
		body := predictBody(t, float64(i+1))
		refResp, ref := post(t, "http://"+p0.addr+"/v1/predict", body)
		if refResp.StatusCode != http.StatusOK {
			t.Fatalf("reference predict: %d", refResp.StatusCode)
		}
		gwResp, got := post(t, base+"/v1/predict", body)
		if gwResp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d after kill: status %d: %s", i, gwResp.StatusCode, got)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("predict %d: retried response not bit-identical", i)
		}
		if g.Metrics().Retries > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("40 keys never routed to the dead backend — hash spread is broken")
	}
	// The dead backend's breaker must have tripped by now (threshold 3,
	// every attempt to it failed).
	var dead BackendStatus
	for _, b := range g.Backends() {
		if b.Name == "b1" {
			dead = b
		}
	}
	if dead.BreakerTrips == 0 {
		t.Fatalf("dead backend's breaker never tripped: %+v", dead)
	}
}

// TestGatewayAllDown503: every backend down must yield a typed 503
// naming the model — not a hang, not a bare 500.
func TestGatewayAllDown503(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	p0.kill()
	// Wait for a probe to notice.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bs := g.Backends()
		if len(bs) == 1 && !bs[0].Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the killed backend unready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, raw := post(t, base+"/v1/predict", predictBody(t, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down predict: status %d body %s, want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-down 503 carries no Retry-After")
	}
	var body struct {
		Error  string `json:"error"`
		Source string `json:"source"`
		Model  string `json:"model"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("all-down 503 body is not JSON: %s", raw)
	}
	if body.Model != "h2" || body.Source != "gateway" || body.Error == "" {
		t.Fatalf("all-down 503 body %+v, want model=h2 source=gateway and an error", body)
	}
}

// TestGatewayNoBackendsConfigured: an empty fleet is a distinct, typed
// condition.
func TestGatewayNoBackendsConfigured(t *testing.T) {
	g := New(fastCfg())
	t.Cleanup(g.Close)
	base := gwServer(t, g)
	resp, raw := post(t, base+"/v1/predict", predictBody(t, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !bytes.Contains(raw, []byte("no backends configured")) {
		t.Fatalf("body %s, want 'no backends configured'", raw)
	}
}

// TestGatewayUnknownModel404: a healthy fleet that doesn't advertise
// the model is a client error, not an availability problem.
func TestGatewayUnknownModel404(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	raw, err := json.Marshal(serve.PredictRequest{Model: "nope", Inputs: [][]float64{make([]float64, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, base+"/v1/predict", raw)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-model status %d body %s, want 404", resp.StatusCode, body)
	}
}

// requestsTotal sums proxied request attempts across the fleet — the
// backend-side counter the cache assertions key off.
func requestsTotal(g *Gateway) int64 {
	var n int64
	for _, b := range g.Backends() {
		n += b.Requests
	}
	return n
}

// TestGatewayPlanCache: a repeated /v1/plan is served from the gateway
// cache without touching any backend; a registry reload invalidates it.
func TestGatewayPlanCache(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	plan, err := json.Marshal(serve.PlanRequest{Model: "h2", Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	resp1, body1 := post(t, base+"/v1/plan", plan)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d: %s", resp1.StatusCode, body1)
	}
	after1 := requestsTotal(g)

	resp2, body2 := post(t, base+"/v1/plan", plan)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Fatalf("cached plan differs: status %d\n 1st %s\n 2nd %s", resp2.StatusCode, body1, body2)
	}
	if resp2.Header.Get("X-Errprop-Cache") != "hit" {
		t.Fatal("second plan was not a cache hit")
	}
	if got := requestsTotal(g); got != after1 {
		t.Fatalf("cached plan touched a backend: requests %d -> %d", after1, got)
	}
	// A different tolerance is a different plan — must miss.
	plan2, err := json.Marshal(serve.PlanRequest{Model: "h2", Tol: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	post(t, base+"/v1/plan", plan2)
	afterMiss := requestsTotal(g)
	if afterMiss == after1 {
		t.Fatal("changed tolerance did not miss the cache")
	}

	// Registry reload: same fleet, but the cache must drop wholesale.
	if err := g.SetBackends([]Backend{p0.backend(1)}); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitReady("h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resp3, body3 := post(t, base+"/v1/plan", plan)
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(body1, body3) {
		t.Fatalf("post-reload plan differs from original")
	}
	if resp3.Header.Get("X-Errprop-Cache") == "hit" {
		t.Fatal("reload did not invalidate the plan cache")
	}
	if got := requestsTotal(g); got == afterMiss {
		t.Fatal("post-reload plan did not touch a backend")
	}

	// Cache stats surface in metrics.
	m := g.Metrics()
	if m.CacheHits < 1 || m.CacheMisses < 2 {
		t.Fatalf("cache stats hits=%d misses=%d, want >=1/>=2", m.CacheHits, m.CacheMisses)
	}
}

// TestGatewayModelsCache: /v1/models caches like /v1/plan.
func TestGatewayModelsCache(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	resp1, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body1, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("models: %d %s", resp1.StatusCode, body1)
	}
	after1 := requestsTotal(g)
	resp2, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Errprop-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Fatal("second /v1/models was not a byte-identical cache hit")
	}
	if requestsTotal(g) != after1 {
		t.Fatal("cached /v1/models touched a backend")
	}
}

// TestGatewayZeroDowntimeAddRemove: grow the fleet, then shrink it, with
// traffic flowing the whole time and not one failed request.
func TestGatewayZeroDowntimeAddRemove(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	p1 := startProc(t, "b1", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	send := func(i int) {
		t.Helper()
		resp, raw := post(t, base+"/v1/predict", predictBody(t, float64(i+1)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d during membership change: %d %s", i, resp.StatusCode, raw)
		}
	}
	for i := 0; i < 5; i++ {
		send(i)
	}
	// Grow: add b1. It takes traffic only after a probe reports it ready.
	if err := g.SetBackends([]Backend{p0.backend(1), p1.backend(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		send(i)
	}
	// Shrink: retire b0. The gateway must route around it instantly.
	if err := g.SetBackends([]Backend{p1.backend(1)}); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitReady("h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		send(i)
	}
	if m := g.Metrics(); m.Failed != 0 {
		t.Fatalf("failed_total %d during zero-downtime membership changes, want 0", m.Failed)
	}
}

// TestGatewayCorruptReloadKeepsFleet: a corrupt registry manifest is
// refused with a typed integrity error and the serving fleet is
// untouched — reloads are atomic or nothing.
func TestGatewayCorruptReloadKeepsFleet(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.reg")
	reg := &Registry{Backends: []Backend{p0.backend(1)}}
	if err := WriteRegistryFile(path, reg); err != nil {
		t.Fatal(err)
	}
	if err := g.LoadRegistryFile(path); err != nil {
		t.Fatal(err)
	}
	before := g.Backends()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = g.LoadRegistryFile(path)
	if err == nil {
		t.Fatal("corrupt registry reload succeeded")
	}
	if !integrity.IsIntegrityError(err) {
		t.Fatalf("corrupt reload error %v is not a typed integrity error", err)
	}
	after := g.Backends()
	if len(after) != len(before) || after[0].Name != before[0].Name || after[0].Addr != before[0].Addr {
		t.Fatalf("fleet changed across a refused reload:\n before %+v\n after  %+v", before, after)
	}
	// And it still serves.
	if err := g.WaitReady("h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, raw2 := post(t, base+"/v1/predict", predictBody(t, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after refused reload: %d %s", resp.StatusCode, raw2)
	}
	if g.Metrics().Reloads != 1 {
		t.Fatalf("registry_reloads_total %d, want 1 (the refused reload must not count)", g.Metrics().Reloads)
	}
}

// TestGatewayHealthzAlwaysAnswers: gateway liveness is unconditional —
// 200 with ready=false over a dead fleet.
func TestGatewayHealthzAlwaysAnswers(t *testing.T) {
	p0 := startProc(t, "b0", "127.0.0.1:0")
	g := newTestGateway(t, fastCfg(), p0)
	base := gwServer(t, g)

	p0.kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
			Ready  bool   `json:"ready"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway healthz %d, want 200 always (liveness)", resp.StatusCode)
		}
		if !h.Ready && h.Status == "degraded" {
			return // probe noticed; liveness stayed 200 throughout
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported degraded: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
