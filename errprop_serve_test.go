package errprop_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	errprop "github.com/scidata/errprop"
)

// TestFacadeServer exercises the serving subsystem purely through the
// public facade: build a network, compile its artifact, register, predict
// over HTTP, and read the metrics plane — the exact surface cmd/errpropd
// and external callers use.
func TestFacadeServer(t *testing.T) {
	net, err := errprop.MLPSpec("h2", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(5)
	if err != nil {
		t.Fatal(err)
	}
	srv := errprop.NewServer(errprop.ServeConfig{Workers: 2})
	defer srv.Close()
	art, err := errprop.BuildArtifact(net, errprop.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterArtifact("h2", art); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	row := make([]float64, 9)
	for i := range row {
		row[i] = 0.1 * float64(i)
	}
	body, err := json.Marshal(map[string]any{"model": "h2", "inputs": [][]float64{row}, "tolerance": 1e6})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr struct {
		Outputs [][]float64 `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	// The served function is the quantized copy's function.
	qnet, err := errprop.Quantize(net, errprop.FP16)
	if err != nil {
		t.Fatal(err)
	}
	want := qnet.ForwardVec(row)
	for i := range want {
		if math.Abs(pr.Outputs[0][i]-want[i]) > 1e-12 {
			t.Fatalf("output[%d] = %v, want %v", i, pr.Outputs[0][i], want[i])
		}
	}

	m := srv.Metrics()
	if m.Requests != 1 || m.OK != 1 || m.Samples != 1 {
		t.Fatalf("metrics after one request: %+v", m)
	}
}

// TestDecompressDimsErrorPaths covers the untrusted-blob failure modes:
// truncations anywhere in the container and a corrupted magic must
// surface as errors, never as silently wrong data or a panic.
func TestDecompressDimsErrorPaths(t *testing.T) {
	data := make([]float64, 4*32)
	for i := range data {
		data[i] = math.Sin(float64(i) / 5)
	}
	blob, err := errprop.Compress("sz", data, []int{4, 32}, errprop.AbsLinf, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, dims, err := errprop.DecompressDims(blob); err != nil || len(dims) != 2 || dims[0] != 4 || dims[1] != 32 {
		t.Fatalf("round trip failed: dims=%v err=%v", dims, err)
	}

	// Truncations: cut inside the magic, the header, and the payload.
	for _, k := range []int{0, 1, 3, 8, len(blob) / 2, len(blob) - 1} {
		if k >= len(blob) {
			continue
		}
		if _, _, err := errprop.DecompressDims(blob[:k]); err == nil {
			t.Errorf("truncated blob (%d of %d bytes) decoded without error", k, len(blob))
		}
	}

	// A corrupt header (wrong magic) must be rejected up front.
	corrupt := append([]byte(nil), blob...)
	corrupt[0] ^= 0xFF
	if _, _, err := errprop.DecompressDims(corrupt); err == nil {
		t.Error("blob with corrupted magic decoded without error")
	}
}
