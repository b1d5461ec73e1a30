package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/serve"
)

// buildH2Artifact compiles the shared h2 test network into an
// ahead-of-time artifact at format f.
func buildH2Artifact(t *testing.T, f numfmt.Format) *artifact.Artifact {
	t.Helper()
	art, err := artifact.Build(h2Net(t), f)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestRegistryArtifactRefsRoundTrip: a manifest with pinned artifacts
// takes the v2 frame and round-trips exactly; one without stays byte
// for byte on the v1 frame.
func TestRegistryArtifactRefsRoundTrip(t *testing.T) {
	reg := sampleRegistry()
	reg.Artifacts = []ArtifactRef{
		{Model: "h2", Path: "models/h2.aot", Checksum: "crc32c:0123abcd"},
		{Model: "flame", Path: "/abs/flame.aot", Checksum: "crc32c:00000000"},
	}
	raw, err := reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:len(registryMagicV2)]) != registryMagicV2 {
		t.Fatalf("manifest with artifacts framed as %q, want %q", raw[:len(registryMagicV2)], registryMagicV2)
	}
	dec, err := DecodeRegistry(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, reg) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", dec, reg)
	}
	re, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatal("v2 decode/encode is not a bijection")
	}

	// No artifacts: identical to the legacy v1 framing.
	v1, err := sampleRegistry().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(v1[:len(registryMagic)]) != registryMagic {
		t.Fatalf("manifest without artifacts framed as %q, want %q", v1[:len(registryMagic)], registryMagic)
	}
}

// TestRegistryArtifactRefsRejected: structural rules on refs are
// enforced on encode, and a hand-built v2 frame declaring zero refs is
// refused (it would be a second encoding of a v1-encodable registry).
func TestRegistryArtifactRefsRejected(t *testing.T) {
	bad := []ArtifactRef{
		{Model: "", Path: "x.aot", Checksum: "crc32c:0123abcd"},
		{Model: "h2", Path: "", Checksum: "crc32c:0123abcd"},
		{Model: "h2", Path: "x.aot", Checksum: "crc32c:0123ABCD"},
		{Model: "h2", Path: "x.aot", Checksum: "sha256:0123abcd"},
		{Model: "h2", Path: "x.aot", Checksum: "crc32c:0123abc"},
	}
	for i, ref := range bad {
		reg := sampleRegistry()
		reg.Artifacts = []ArtifactRef{ref}
		if _, err := reg.Encode(); err == nil {
			t.Errorf("bad ref %d encoded: %+v", i, ref)
		}
	}
	dup := sampleRegistry()
	dup.Artifacts = []ArtifactRef{
		{Model: "h2", Path: "a.aot", Checksum: "crc32c:0123abcd"},
		{Model: "h2", Path: "b.aot", Checksum: "crc32c:0123abcd"},
	}
	if _, err := dup.Encode(); err == nil {
		t.Error("duplicate artifact model encoded")
	}

	// v2 frame, zero refs: splice an empty artifact count onto a valid
	// v1 body and re-frame under the v2 magic.
	v1, err := sampleRegistry().Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(nil), v1[len(registryMagic)+12:]...), 0, 0, 0, 0)
	frame := []byte(registryMagicV2)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, integrity.Checksum(body))
	frame = append(frame, body...)
	if _, err := DecodeRegistry(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 frame with zero artifacts: err %v, want ErrCorrupt", err)
	}
}

// artifactBackend is a real serve.Server on a real listener whose
// non-health traffic is counted, so tests can prove the gateway
// answered without a backend round-trip.
type artifactBackend struct {
	addr string
	hits atomic.Int64
}

// startArtifactBackend serves the h2 artifact at format f as "h2" and
// under each name in also.
func startArtifactBackend(t *testing.T, f numfmt.Format, also ...string) *artifactBackend {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1, RetryAfter: time.Second})
	art := buildH2Artifact(t, f)
	for _, name := range append([]string{"h2"}, also...) {
		if err := s.RegisterArtifact(name, art); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)
	b := &artifactBackend{}
	inner := s.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			b.hits.Add(1)
		}
		inner.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the test owns the lifecycle
	t.Cleanup(func() {
		//lint:ignore droppederr shutdown of a test server
		_ = hs.Close()
	})
	return b
}

// writeArtifactRegistry compiles the h2 artifact into dir, writes a
// manifest pinning it (relative path) over the given backend, and
// returns the manifest path and the artifact.
func writeArtifactRegistry(t *testing.T, dir, backendAddr string, f numfmt.Format) (string, *artifact.Artifact) {
	t.Helper()
	art := buildH2Artifact(t, f)
	if err := artifact.WriteFile(filepath.Join(dir, "h2.aot"), art); err != nil {
		t.Fatal(err)
	}
	reg := &Registry{
		Backends:  []Backend{{Name: "b0", Addr: backendAddr, Weight: 1}},
		Artifacts: []ArtifactRef{{Model: "h2", Path: "h2.aot", Checksum: art.Checksum}},
	}
	regPath := filepath.Join(dir, "fleet.reg")
	if err := WriteRegistryFile(regPath, reg); err != nil {
		t.Fatal(err)
	}
	return regPath, art
}

// TestGatewayPlanFromArtifact: with the manifest pinning a verified
// artifact, /v1/plan answers gateway-side — byte-identical to the
// backend's answer on success and error paths alike — and /v1/models
// answers from the artifact's static contract. Zero backend
// round-trips for either.
func TestGatewayPlanFromArtifact(t *testing.T) {
	be := startArtifactBackend(t, numfmt.INT8)
	dir := t.TempDir()
	regPath, art := writeArtifactRegistry(t, dir, be.addr, numfmt.INT8)

	g := New(fastCfg())
	t.Cleanup(g.Close)
	if err := g.LoadRegistryFile(regPath); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitReady("h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	base := gwServer(t, g)

	cases := []string{
		`{"model":"h2","tol":0.5}`,
		`{"model":"h2","tol":0.5,"norm":"l2"}`,
		`{"model":"h2","tol":1e-3,"norm":"linf","quant_fraction":0.25}`,
		`{"model":"h2","tol":0.5,"conservative":true}`,
		`{"model":"h2","tol":0.5,"formats":["fp16","bf16","int8"]}`,
		`{"model":"h2","tol":0.5,"norm":"manhattan"}`,
		`{"model":"h2","tol":0.5,"formats":["fp13"]}`,
		`{"model":"h2","tol":-1}`,
		`{"model":"h2","tol":0}`,
	}
	type answer struct {
		status int
		body   []byte
	}
	got := make([]answer, len(cases))
	before := be.hits.Load()
	for i, c := range cases {
		resp, raw := post(t, base+"/v1/plan", []byte(c))
		got[i] = answer{resp.StatusCode, raw}
	}
	if n := be.hits.Load() - before; n != 0 {
		t.Fatalf("artifact-pinned /v1/plan made %d backend round-trips, want 0", n)
	}
	for i, c := range cases {
		resp, ref := post(t, "http://"+be.addr+"/v1/plan", []byte(c))
		if got[i].status != resp.StatusCode {
			t.Fatalf("case %d %s: gateway status %d, backend %d", i, c, got[i].status, resp.StatusCode)
		}
		if !bytes.Equal(got[i].body, ref) {
			t.Fatalf("case %d %s: gateway plan not byte-identical:\n gw  %s\n ref %s", i, c, got[i].body, ref)
		}
	}

	// /v1/models: answered from the artifact, carrying its checksum
	// identity and certified bound, again without a round-trip.
	before = be.hits.Load()
	mresp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string]gwModelStats
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if n := be.hits.Load() - before; n != 0 {
		t.Fatalf("artifact-pinned /v1/models made %d backend round-trips, want 0", n)
	}
	m, ok := models["h2"]
	if !ok {
		t.Fatalf("gateway /v1/models misses h2: %v", models)
	}
	if m.Checksum != art.Checksum {
		t.Fatalf("models checksum %s, want artifact identity %s", m.Checksum, art.Checksum)
	}
	if m.Format != "int8" || m.InDim != 9 || m.OutDim != 9 {
		t.Fatalf("models static fields wrong: %+v", m)
	}
	if m.QuantBound != art.QuantBound {
		t.Fatalf("models bound %g, want certified %g", m.QuantBound, art.QuantBound)
	}

	// Predict still routes to the fleet: the artifact answers planning
	// and contract queries, not inference.
	presp, praw := post(t, base+"/v1/predict", predictBody(t, 1))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("predict through artifact-pinned gateway: %d %s", presp.StatusCode, praw)
	}
	if be.hits.Load() == before {
		t.Fatal("predict made no backend round-trip")
	}
}

// TestGatewayModelsPartialPin: a registry that pins some of the models
// the fleet serves must not hide the rest. /v1/models is relayed to a
// backend and lists every model the backend lists, byte for byte.
func TestGatewayModelsPartialPin(t *testing.T) {
	be := startArtifactBackend(t, numfmt.FP32, "flame")
	regPath, _ := writeArtifactRegistry(t, t.TempDir(), be.addr, numfmt.FP32)

	g := New(fastCfg())
	t.Cleanup(g.Close)
	if err := g.LoadRegistryFile(regPath); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitReady("flame", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	base := gwServer(t, g)

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/v1/models: status %d: %s", url, resp.StatusCode, raw)
		}
		return raw
	}
	before := be.hits.Load()
	got := get(base)
	if be.hits.Load() == before {
		t.Fatal("partially pinned /v1/models was answered without the backend")
	}
	if want := get("http://" + be.addr); !bytes.Equal(got, want) {
		t.Fatalf("gateway /v1/models differs from the backend's:\n gw  %s\n ref %s", got, want)
	}
}

// TestLoadRegistryFileRefusesBadArtifact: a manifest whose pinned
// artifact is missing, corrupt, or checksum-mismatched is refused as a
// unit — typed error, fleet and artifacts unchanged.
func TestLoadRegistryFileRefusesBadArtifact(t *testing.T) {
	be := startArtifactBackend(t, numfmt.FP16)
	dir := t.TempDir()
	regPath, art := writeArtifactRegistry(t, dir, be.addr, numfmt.FP16)

	g := New(fastCfg())
	t.Cleanup(g.Close)
	if err := g.LoadRegistryFile(regPath); err != nil {
		t.Fatal(err)
	}
	wantBackends := g.Backends()

	assertUnchanged := func(when string) {
		t.Helper()
		if a, ok := g.artifactFor("h2"); !ok || a.Checksum != art.Checksum {
			t.Fatalf("%s: pinned artifact changed (ok=%v)", when, ok)
		}
		now := g.Backends()
		if len(now) != len(wantBackends) || now[0].Name != wantBackends[0].Name || now[0].Addr != wantBackends[0].Addr {
			t.Fatalf("%s: fleet changed: %+v", when, now)
		}
	}

	// Checksum mismatch: pin a valid-shaped but wrong identity.
	wrong := "crc32c:00000000"
	if wrong == art.Checksum {
		wrong = "crc32c:00000001"
	}
	reg := &Registry{
		Backends:  []Backend{{Name: "b0", Addr: be.addr, Weight: 1}},
		Artifacts: []ArtifactRef{{Model: "h2", Path: "h2.aot", Checksum: wrong}},
	}
	badPath := filepath.Join(dir, "bad.reg")
	if err := WriteRegistryFile(badPath, reg); err != nil {
		t.Fatal(err)
	}
	err := g.LoadRegistryFile(badPath)
	if !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("checksum-mismatch reload: err %v, want ErrArtifactMismatch", err)
	}
	assertUnchanged("after mismatch refusal")

	// Corrupt artifact file: flip one byte mid-body.
	aotPath := filepath.Join(dir, "h2.aot")
	raw, err := os.ReadFile(aotPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(aotPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = g.LoadRegistryFile(regPath)
	if err == nil || !integrity.IsIntegrityError(err) {
		t.Fatalf("corrupt-artifact reload: err %v, want integrity error", err)
	}
	assertUnchanged("after corruption refusal")

	// Missing artifact file.
	if err := os.Remove(aotPath); err != nil {
		t.Fatal(err)
	}
	if err := g.LoadRegistryFile(regPath); err == nil {
		t.Fatal("reload with missing artifact file succeeded")
	}
	assertUnchanged("after missing-file refusal")
}
