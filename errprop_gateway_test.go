package errprop_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	errprop "github.com/scidata/errprop"
)

// TestFacadeGateway drives the fleet-serving surface end to end through
// the public facade: write a registry manifest, boot a backend Server
// and a Gateway over it, and verify a predict through the gateway is
// bit-identical to one asked of the backend directly.
func TestFacadeGateway(t *testing.T) {
	net9, err := errprop.MLPSpec("h2", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(5)
	if err != nil {
		t.Fatal(err)
	}
	srv := errprop.NewServer(errprop.ServeConfig{Workers: 1})
	art, err := errprop.BuildArtifact(net9, errprop.FP32)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterArtifact("h2", art); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backendSrv := &http.Server{Handler: srv.Handler()}
	go backendSrv.Serve(ln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the test owns the lifecycle
	t.Cleanup(func() {
		//lint:ignore droppederr shutdown of a test server
		_ = backendSrv.Close()
	})

	// Registry manifest round trip through the facade helpers.
	path := filepath.Join(t.TempDir(), "fleet.reg")
	reg := &errprop.GatewayRegistry{Backends: []errprop.GatewayBackend{
		{Name: "b0", Addr: ln.Addr().String(), Weight: 1},
	}}
	if err := errprop.WriteGatewayRegistry(path, reg); err != nil {
		t.Fatal(err)
	}
	got, err := errprop.ReadGatewayRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reg) {
		t.Fatalf("registry round trip mismatch: %+v", got)
	}

	g := errprop.NewGateway(errprop.GatewayConfig{ProbeInterval: 20 * time.Millisecond, Seed: 7})
	t.Cleanup(g.Close)
	if err := g.LoadRegistryFile(path); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitReady("h2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := &http.Server{Handler: g.Handler()}
	go gwSrv.Serve(gln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the test owns the lifecycle
	t.Cleanup(func() {
		//lint:ignore droppederr shutdown of a test server
		_ = gwSrv.Close()
	})

	in := map[string]any{"model": "h2", "inputs": [][]float64{{0, .1, .2, .3, .4, .5, .6, .7, .8}}}
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(base string) []byte {
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict via %s: status %d: %s", base, resp.StatusCode, raw)
		}
		return raw
	}
	direct := fetch("http://" + ln.Addr().String())
	viaGW := fetch("http://" + gln.Addr().String())
	if !bytes.Equal(direct, viaGW) {
		t.Fatalf("gateway response not bit-identical to backend:\n direct %s\n gw     %s", direct, viaGW)
	}

	m := g.Metrics()
	if !m.Ready || len(m.Backends) != 1 || m.Backends[0].Breaker != "closed" {
		t.Fatalf("gateway metrics after clean serving: %+v", m)
	}
}
