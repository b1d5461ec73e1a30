package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/numfmt"
)

// getBody fetches url and returns the exact response bytes.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEndpointsDeterministic locks in the determinism contract for the
// read-only endpoints: with several models registered (so map iteration
// order would show if it leaked), /v1/models, /metrics and /healthz must
// return byte-identical bodies across repeated calls.
func TestEndpointsDeterministic(t *testing.T) {
	s := New(Config{})
	// Registration order deliberately differs from sorted order.
	for _, name := range []string{"zeta", "alpha", "mu", "beta", "kappa"} {
		registerNet(t, s, name, h2Net(t), numfmt.FP32)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	names := s.Models()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Models() not sorted: %v", names)
	}

	for _, path := range []string{"/v1/models", "/metrics", "/healthz"} {
		first := getBody(t, ts.URL+path)
		for i := 0; i < 10; i++ {
			if got := getBody(t, ts.URL+path); string(got) != string(first) {
				t.Errorf("%s response changed between calls:\n%s\nvs\n%s", path, first, got)
				break
			}
		}
	}
}

// TestBlobInputErrorDefault: a blob request that does not declare
// input_error inherits the container's own tolerance — the codec's
// achieved bound becomes the request's input error.
func TestBlobInputErrorDefault(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 1}, "h2", net, numfmt.FP32)

	const n = 4
	field := make([]float64, 9*n)
	for i := range field {
		field[i] = math.Sin(float64(i) / 5)
	}
	const tol = 1e-4
	blob, err := compress.Encode("sz", field, []int{9, n}, compress.AbsLinf, tol)
	if err != nil {
		t.Fatal(err)
	}

	post := func(query string) *PredictResponse {
		t.Helper()
		url := fmt.Sprintf("%s/v1/predict?model=h2&tolerance=1e6%s", ts.URL, query)
		resp, err := ts.Client().Post(url, BlobContentType, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return &pr
	}

	implicit := post("")
	if implicit.Bound == nil || implicit.Bound.TotalBound <= implicit.Bound.QuantBound {
		t.Fatalf("container tolerance did not enter the bound: %+v", implicit.Bound)
	}
	if implicit.Bound.Norm != "linf" {
		t.Fatalf("norm should default to the blob's mode family (linf), got %q", implicit.Bound.Norm)
	}

	// Declaring the same value explicitly must give the identical bound,
	// and an explicit override must win over the container's tolerance.
	explicit := post(fmt.Sprintf("&norm=linf&input_error=%g", tol))
	if implicit.Bound.TotalBound != explicit.Bound.TotalBound {
		t.Errorf("implicit bound %v != explicit bound %v", implicit.Bound.TotalBound, explicit.Bound.TotalBound)
	}
	override := post("&norm=linf&input_error=0")
	if override.Bound.TotalBound >= implicit.Bound.TotalBound {
		t.Errorf("explicit input_error=0 should beat the container default: %v vs %v",
			override.Bound.TotalBound, implicit.Bound.TotalBound)
	}
}
