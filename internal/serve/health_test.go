package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/numfmt"
)

// getHealth fetches /healthz and decodes the Health body, returning the
// status code alongside it.
func getHealth(t *testing.T, ts *httptest.Server) (int, Health) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding healthz body: %v", err)
	}
	return resp.StatusCode, h
}

// TestHealthzReadiness walks /healthz through the server's life:
// alive-but-not-ready before any model registers, ready after, and
// alive-draining-not-ready once Close starts — the liveness/readiness
// distinction a routing tier keys off.
func TestHealthzReadiness(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness without readiness: no model yet.
	code, h := getHealth(t, ts)
	if code != http.StatusOK {
		t.Fatalf("empty-server healthz: status %d, want 200 (alive)", code)
	}
	if h.Ready || h.Status != "ok" || len(h.Models) != 0 {
		t.Fatalf("empty-server healthz: %+v, want ready=false status=ok no models", h)
	}

	registerNet(t, s, "h2", h2Net(t), numfmt.FP32)
	code, h = getHealth(t, ts)
	if code != http.StatusOK || !h.Ready || h.Draining {
		t.Fatalf("registered healthz: code %d %+v, want 200 ready=true", code, h)
	}
	if len(h.Models) != 1 || h.Models[0] != "h2" {
		t.Fatalf("registered healthz models: %+v", h.Models)
	}
	if h.QueueDepth != 0 {
		t.Fatalf("idle queue depth %d, want 0", h.QueueDepth)
	}

	s.Close()
	code, h = getHealth(t, ts)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", code)
	}
	if h.Ready || !h.Draining || h.Status != "draining" {
		t.Fatalf("draining healthz: %+v, want ready=false draining=true", h)
	}
	// Drained servers still advertise what they served, so a rolling
	// restart's probe can keep the model map warm.
	if len(h.Models) != 1 || h.Models[0] != "h2" {
		t.Fatalf("draining healthz models: %+v", h.Models)
	}
}

// TestAll503ShapesCarryRetryAfter pins the contract that every 503 the
// server can emit — queue-full predict, draining predict, draining
// healthz — carries a Retry-After hint and a JSON body. A bare 503
// anywhere would strand clients (and the gateway's backoff floor)
// without a schedule.
func TestAll503ShapesCarryRetryAfter(t *testing.T) {
	check := func(t *testing.T, resp *http.Response, wantRetryAfter string) {
		t.Helper()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != wantRetryAfter {
			t.Fatalf("Retry-After %q, want %q", got, wantRetryAfter)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
	}

	t.Run("queue-full predict", func(t *testing.T) {
		// A held worker and a 1-deep queue: the second request must see the
		// admission 503.
		s, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 1, QueueCap: 1, RetryAfter: 3 * time.Second}, "h2", h2Net(t), numfmt.FP32)
		m := holdModel(t, s, "h2")
		in := PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}}
		first := predictAsync(t, ts, in)
		waitUntil(t, "the first request to be admitted", func() bool { return m.admitted.Load() == 1 })
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict", in)
		check(t, resp, "3")
		holdWorkers(m, false)
		if r := <-first; r.code != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200: %s", r.code, r.body)
		}
	})

	t.Run("draining predict", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, RetryAfter: 2 * time.Second}, "h2", h2Net(t), numfmt.FP32)
		s.Close()
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/predict",
			PredictRequest{Model: "h2", Inputs: [][]float64{make([]float64, 9)}})
		check(t, resp, "2")
	})

	t.Run("draining healthz", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, RetryAfter: 2 * time.Second}, "h2", h2Net(t), numfmt.FP32)
		s.Close()
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		check(t, resp, "2")
	})
}
