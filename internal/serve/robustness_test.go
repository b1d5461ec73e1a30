package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/detrand"
	"github.com/scidata/errprop/internal/faultinject"
	"github.com/scidata/errprop/internal/numfmt"
)

// TestBlobCorruptionAlways400 drives every fault injector over a valid
// blob body: each corrupted request must come back as a 400 carrying a
// JSON error detail — never a 500, and never a 200 computed over bytes
// the checksums should have rejected.
func TestBlobCorruptionAlways400(t *testing.T) {
	net := h2Net(t)
	_, ts := newTestServer(t, Config{Workers: 1}, "h2", net, numfmt.FP32)

	const n = 8
	field := make([]float64, 9*n)
	for i := range field {
		field[i] = math.Sin(float64(i)/5) + 0.2*math.Cos(float64(i)/3)
	}
	blob, err := compress.Encode("sz", field, []int{9, n}, compress.AbsLinf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/predict?model=h2"

	// Sanity: the pristine blob is accepted.
	resp, err := ts.Client().Post(url, BlobContentType, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pristine blob rejected with %d", resp.StatusCode)
	}

	applied, integrityDetails := 0, 0
	for _, inj := range faultinject.All() {
		for seed := uint64(0); seed < 8; seed++ {
			rng := detrand.New(4000 + seed)
			bad, desc := inj.Apply(blob, rng)
			if bad == nil {
				continue
			}
			applied++
			resp, err := ts.Client().Post(url, BlobContentType, bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("%s/%s: corrupt blob returned %d, must be a client error", inj.Name(), desc, resp.StatusCode)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s/%s: corrupt blob returned %d, want 400", inj.Name(), desc, resp.StatusCode)
			}
			if decErr != nil || e.Error == "" {
				t.Fatalf("%s/%s: 400 without a JSON error detail (decode err %v)", inj.Name(), desc, decErr)
			}
			if strings.Contains(e.Error, "integrity check") {
				integrityDetails++
			}
		}
	}
	if applied < 20 {
		t.Fatalf("only %d corruptions applied — injector coverage collapsed", applied)
	}
	if integrityDetails == 0 {
		t.Fatal("no rejection ever carried the integrity-check detail")
	}
}
