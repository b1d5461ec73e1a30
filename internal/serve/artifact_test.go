package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/numfmt"
)

// TestRegisterArtifactMatchesSpecPath is the cold-start equivalence
// oracle at the serving layer: a model registered from an artifact file
// (Decode of the encoded bytes) must be indistinguishable over the wire
// from the same spec model built in memory — bit-identical predictions
// and bounds, byte-identical /v1/plan responses — and both report the
// artifact's checksum identity.
func TestRegisterArtifactMatchesSpecPath(t *testing.T) {
	net := h2Net(t)
	for _, f := range []numfmt.Format{numfmt.FP32, numfmt.INT8, numfmt.FP16} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			built := buildArtifact(t, net, f)
			raw, err := built.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			art, err := artifact.Decode(raw)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}

			_, specTS := serveArtifact(t, Config{Workers: 2}, "h2", built)
			_, artTS := serveArtifact(t, Config{Workers: 2}, "h2", art)

			rng := rand.New(rand.NewSource(3))
			inputs := make([][]float64, 4)
			for i := range inputs {
				row := make([]float64, 9)
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				inputs[i] = row
			}
			preq := PredictRequest{Model: "h2", Inputs: inputs, Tolerance: 10}
			specResp, specBody := postJSON(t, specTS.Client(), specTS.URL+"/v1/predict", preq)
			artResp, artBody := postJSON(t, artTS.Client(), artTS.URL+"/v1/predict", preq)
			if specResp.StatusCode != http.StatusOK || artResp.StatusCode != http.StatusOK {
				t.Fatalf("predict status: spec %d (%s), artifact %d (%s)", specResp.StatusCode, specBody, artResp.StatusCode, artBody)
			}
			if !bytes.Equal(specBody, artBody) {
				t.Fatalf("predict responses differ:\nspec %s\nartifact %s", specBody, artBody)
			}

			for _, plan := range []PlanRequest{
				{Model: "h2", Tol: 0.5},
				{Model: "h2", Tol: 0.05, Norm: "linf", QuantFraction: 0.3, Conservative: true},
				{Model: "h2", Tol: 1, Formats: []string{"int8", "bf16"}},
			} {
				sResp, sBody := postJSON(t, specTS.Client(), specTS.URL+"/v1/plan", plan)
				aResp, aBody := postJSON(t, artTS.Client(), artTS.URL+"/v1/plan", plan)
				if sResp.StatusCode != http.StatusOK || aResp.StatusCode != http.StatusOK {
					t.Fatalf("plan status: spec %d (%s), artifact %d (%s)", sResp.StatusCode, sBody, aResp.StatusCode, aBody)
				}
				if !bytes.Equal(sBody, aBody) {
					t.Fatalf("plan responses not byte-identical:\nspec     %s\nartifact %s", sBody, aBody)
				}
			}

			// Both report the artifact body checksum as their identity, and
			// after identical traffic their /v1/models bodies match exactly.
			specModels, artModels := getBody(t, specTS.URL+"/v1/models"), getBody(t, artTS.URL+"/v1/models")
			if !bytes.Equal(specModels, artModels) {
				t.Fatalf("/v1/models differ:\nspec     %s\nartifact %s", specModels, artModels)
			}
			var models map[string]ModelStats
			if err := json.Unmarshal(artModels, &models); err != nil {
				t.Fatal(err)
			}
			if st, ok := models["h2"]; !ok || st.Checksum != art.Checksum || art.Checksum != built.Checksum {
				t.Fatalf("model checksum: got %+v, want %s", models, art.Checksum)
			}
		})
	}
}
