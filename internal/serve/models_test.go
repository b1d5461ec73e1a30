package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/serve"
)

func getModels(t *testing.T, url string) map[string]serve.ModelStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models map[string]serve.ModelStats
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	return models
}

// TestModelsReportChecksum pins one model identity across every way a
// model is served: a model booted from a saved-network file reports the
// checksum of the artifact built from it — the string `errpropd
// -compile` writes — so two formats of the same weights report two
// identities, and a gateway answering /v1/models from a pinned artifact
// reports exactly what the spec-booted backend does.
func TestModelsReportChecksum(t *testing.T) {
	net, err := nn.MLPSpec("h2", []int{9, 50, 50, 9}, nn.ActTanh, false).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "h2.model")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := serve.New(serve.Config{Workers: 1})
	t.Cleanup(s.Close)
	compiled := make(map[string]*artifact.Artifact)
	for _, format := range []numfmt.Format{numfmt.FP32, numfmt.INT8} {
		name := "h2-" + format.String()
		art, built, err := artifact.Load(specPath, format)
		if err != nil || !built {
			t.Fatalf("loading spec at %s: built=%v err=%v", format, built, err)
		}
		if err := s.RegisterArtifact(name, art); err != nil {
			t.Fatal(err)
		}
		// What -compile writes: Build, then WriteFile.
		want, err := artifact.Build(net, format)
		if err != nil {
			t.Fatal(err)
		}
		aot := filepath.Join(dir, name+".aot")
		if err := artifact.WriteFile(aot, want); err != nil {
			t.Fatal(err)
		}
		if compiled[name], err = artifact.ReadFile(aot); err != nil {
			t.Fatal(err)
		}
	}
	backend := httptest.NewServer(s.Handler())
	t.Cleanup(backend.Close)

	models := getModels(t, backend.URL)
	for name, art := range compiled {
		st, ok := models[name]
		if !ok {
			t.Fatalf("model %s missing from /v1/models: %+v", name, models)
		}
		if !strings.HasPrefix(st.Checksum, "crc32c:") || st.Checksum != art.Checksum {
			t.Fatalf("%s reports checksum %q, want the compiled artifact's %q", name, st.Checksum, art.Checksum)
		}
	}
	if models["h2-fp32"].Checksum == models["h2-int8"].Checksum {
		t.Fatalf("fp32 and int8 serve different weights but report one checksum %s", models["h2-fp32"].Checksum)
	}

	// A gateway pinning the compiled int8 artifact answers /v1/models
	// itself; its entry must equal the spec-booted backend's.
	reg := &gateway.Registry{
		Backends:  []gateway.Backend{{Name: "b0", Addr: strings.TrimPrefix(backend.URL, "http://"), Weight: 1}},
		Artifacts: []gateway.ArtifactRef{{Model: "h2-int8", Path: "h2-int8.aot", Checksum: compiled["h2-int8"].Checksum}},
	}
	regPath := filepath.Join(dir, "fleet.reg")
	if err := gateway.WriteRegistryFile(regPath, reg); err != nil {
		t.Fatal(err)
	}
	g := gateway.New(gateway.Config{ProbeInterval: time.Hour})
	t.Cleanup(g.Close)
	if err := g.LoadRegistryFile(regPath); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	t.Cleanup(gw.Close)
	gwModels := getModels(t, gw.URL)
	if got, want := gwModels["h2-int8"], models["h2-int8"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("gateway /v1/models entry %+v != spec-booted backend's %+v", got, want)
	}
}
