package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
)

// The self-contained load generator: N concurrent clients hammer a real
// httptest.Server over HTTP with single-sample predict requests, the
// production shape micro-batching exists for. Results feed the bench
// trajectory (BENCH_serve.json) and the batched-vs-single acceptance
// test below.

type loadStats struct {
	Clients   int     `json:"clients"`
	Mode      string  `json:"mode"`
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Rejected  int     `json:"rejected"`
	Other     int     `json:"other"`
	Seconds   float64 `json:"seconds"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50ms     float64 `json:"p50_ms"`
	P95ms     float64 `json:"p95_ms"`
	P99ms     float64 `json:"p99_ms"`
	MeanBatch float64 `json:"mean_batch"`
}

// runLoad drives the handler with clients goroutines issuing perClient
// single-sample requests each and reports client-side throughput and
// latency percentiles.
func runLoad(tb testing.TB, s *Server, clients, perClient int) loadStats {
	tb.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.Metrics()
	st := runLoadURL(tb, ts.URL, clients, perClient)
	after := s.Metrics()
	if batches := after.Batches - before.Batches; batches > 0 {
		st.MeanBatch = float64(after.Samples-before.Samples) / float64(batches)
	}
	return st
}

// runLoadURL is runLoad against an arbitrary /v1/predict base URL — the
// same generator pointed at a gateway instead of a single server (no
// batch accounting: the gateway has no batcher of its own).
func runLoadURL(tb testing.TB, base string, clients, perClient int) loadStats {
	tb.Helper()
	transport := &http.Transport{MaxIdleConns: clients * 2, MaxIdleConnsPerHost: clients * 2}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()
	type outcome struct {
		code int
		dur  time.Duration
	}
	outcomes := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			outs := make([]outcome, 0, perClient)
			for i := 0; i < perClient; i++ {
				row := make([]float64, 9)
				for f := range row {
					row[f] = rng.NormFloat64()
				}
				body, err := json.Marshal(PredictRequest{Model: "h2", Inputs: [][]float64{row}})
				if err != nil {
					tb.Error(err)
					return
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					tb.Error(err)
					return
				}
				var sink bytes.Buffer
				_, _ = sink.ReadFrom(resp.Body)
				resp.Body.Close()
				outs = append(outs, outcome{code: resp.StatusCode, dur: time.Since(t0)})
			}
			outcomes[c] = outs
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := loadStats{Clients: clients, Seconds: elapsed.Seconds()}
	var durs []time.Duration
	for _, outs := range outcomes {
		for _, o := range outs {
			st.Requests++
			switch o.code {
			case http.StatusOK:
				st.OK++
				durs = append(durs, o.dur)
			case http.StatusServiceUnavailable:
				st.Rejected++
			default:
				st.Other++
			}
		}
	}
	st.ReqPerSec = float64(st.OK) / elapsed.Seconds()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(q float64) float64 {
		if len(durs) == 0 {
			return 0
		}
		idx := int(q * float64(len(durs)-1))
		return float64(durs[idx]) / float64(time.Millisecond)
	}
	st.P50ms, st.P95ms, st.P99ms = pct(0.50), pct(0.95), pct(0.99)
	return st
}

// benchFleet boots n benchServer backends on real listeners behind a
// gateway and returns the gateway's base URL.
func benchFleet(tb testing.TB, n, maxBatch int) string {
	tb.Helper()
	list := make([]gateway.Backend, n)
	for i := 0; i < n; i++ {
		s := benchServer(tb, maxBatch)
		tb.Cleanup(s.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		hsrv := &http.Server{Handler: s.Handler()}
		go hsrv.Serve(ln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the bench owns the lifecycle
		tb.Cleanup(func() {
			//lint:ignore droppederr shutdown of a bench server
			_ = hsrv.Close()
		})
		list[i] = gateway.Backend{Name: fmt.Sprintf("bench-%d", i), Addr: ln.Addr().String(), Weight: 1}
	}
	g := gateway.New(gateway.Config{ProbeInterval: 20 * time.Millisecond, Seed: 1})
	tb.Cleanup(g.Close)
	if err := g.SetBackends(list); err != nil {
		tb.Fatal(err)
	}
	if err := g.WaitReady("h2", 10*time.Second); err != nil {
		tb.Fatal(err)
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ghsrv := &http.Server{Handler: g.Handler()}
	go ghsrv.Serve(gln) //lint:ignore droppederr Serve returns ErrServerClosed on Close; the bench owns the lifecycle
	tb.Cleanup(func() {
		//lint:ignore droppederr shutdown of a bench server
		_ = ghsrv.Close()
	})
	return "http://" + gln.Addr().String()
}

func benchServer(tb testing.TB, maxBatch int) *Server {
	tb.Helper()
	s := New(Config{
		Workers:        2,
		MaxBatch:       maxBatch,
		QueueCap:       4096,
		RequestTimeout: 30 * time.Second,
	})
	registerNet(tb, s, "h2", h2Net(tb), numfmt.FP32)
	return s
}

// TestMicroBatchingBeatsSingleAt64Clients is the subsystem's acceptance
// gate: at 64 concurrent clients on the same worker count, dynamic
// micro-batching must serve strictly more requests per second than
// batch-size-1 serving, with every admitted request answered (zero
// drops) and server-side counters reconciling with the client's.
//
// The two modes alternate over several short rounds, which mode goes
// first alternating too, and the median of the per-round rate ratios
// must exceed 1: the host's speed drifts over seconds, and one long run
// of each mode charged that drift to whichever mode ran second.
func TestMicroBatchingBeatsSingleAt64Clients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const clients, perClient, rounds = 64, 8, 15

	// A heavier hidden size than h2Net keeps the forward pass
	// compute-bound on the blocked kernels: batching's advantage is
	// weight-traversal amortization, which only shows when weight traffic
	// is a measurable share of request cost (with a 50-wide net the HTTP
	// stack dominates and the comparison is noise).
	loadNet, err := nn.MLPSpec("h2", []int{9, 512, 512, 9}, nn.ActTanh, false).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	single := New(Config{Workers: 2, MaxBatch: 1, QueueCap: 4096, RequestTimeout: 30 * time.Second})
	registerNet(t, single, "h2", loadNet, numfmt.FP32)
	defer single.Close()
	batched := New(Config{Workers: 2, MaxBatch: 64, QueueCap: 4096, RequestTimeout: 30 * time.Second})
	registerNet(t, batched, "h2", loadNet, numfmt.FP32)
	defer batched.Close()

	var stSingle, stBatched []loadStats
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			stSingle = append(stSingle, runLoad(t, single, clients, perClient))
			stBatched = append(stBatched, runLoad(t, batched, clients, perClient))
		} else {
			stBatched = append(stBatched, runLoad(t, batched, clients, perClient))
			stSingle = append(stSingle, runLoad(t, single, clients, perClient))
		}
	}
	requests, ok := 0, 0
	ratios := make([]float64, rounds)
	for i := range stSingle {
		t.Logf("round %d single:  %+v", i, stSingle[i])
		t.Logf("round %d batched: %+v", i, stBatched[i])
		for _, st := range []loadStats{stSingle[i], stBatched[i]} {
			if st.OK != st.Requests || st.Rejected != 0 || st.Other != 0 {
				t.Fatalf("dropped/failed requests under an unconstrained queue: %+v", st)
			}
		}
		requests += stBatched[i].Requests
		ok += stBatched[i].OK
		ratios[i] = stBatched[i].ReqPerSec / stSingle[i].ReqPerSec
	}
	sort.Float64s(ratios)
	snap := batched.Metrics()
	meanBatch := 0.0
	if snap.Batches > 0 {
		meanBatch = float64(snap.Samples) / float64(snap.Batches)
	}
	if meanBatch <= 1.01 {
		t.Fatalf("micro-batcher never coalesced (mean batch %.2f); contention should produce multi-sample batches", meanBatch)
	}
	if r := ratios[rounds/2]; r <= 1 {
		t.Fatalf("micro-batching not faster than batch-size-1: median rate ratio %.3f over %d rounds %.3f", r, rounds, ratios)
	}

	// Server-side accounting must reconcile with the client side.
	if snap.Requests != int64(requests) || snap.OK != int64(ok) {
		t.Fatalf("metrics (req=%d ok=%d) do not reconcile with client (%d/%d)",
			snap.Requests, snap.OK, requests, ok)
	}
}

// coldStartStat is one cold-start measurement row: boot a server with
// three models from durable bytes and time until the first /v1/predict
// 200 comes back.
type coldStartStat struct {
	Mode             string  `json:"mode"`
	Models           int     `json:"models"`
	Format           string  `json:"format"`
	TimeToFirst200Ms float64 `json:"time_to_first_200_ms"`
}

// coldStartModels builds the three-model inventory the cold-start rows
// boot: realistic widths so compile-from-spec has visible work to do.
func coldStartModels(tb testing.TB) map[string]*nn.Network {
	tb.Helper()
	nets := map[string]*nn.Network{}
	for name, dims := range map[string][]int{
		"m0": {9, 50, 50, 9},
		"m1": {9, 256, 256, 9},
		"m2": {16, 512, 256, 4},
	} {
		net, err := nn.MLPSpec(name, dims, nn.ActTanh, false).Build(7)
		if err != nil {
			tb.Fatal(err)
		}
		nets[name] = net
	}
	return nets
}

// timeToFirst200 measures one cold start: from file bytes on disk to
// the first successful prediction, through artifact.Load — decode + bind
// for .aot files, load + build (quantize, analyze, compile) for
// saved-spec files. The median of three runs smooths scheduler noise.
func timeToFirst200(tb testing.TB, files map[string]string, f numfmt.Format) float64 {
	tb.Helper()
	one := func() float64 {
		start := time.Now()
		s := New(Config{Workers: 2, MaxBatch: 64, QueueCap: 4096, RequestTimeout: 30 * time.Second})
		defer s.Close()
		for name, path := range files {
			art, _, err := artifact.Load(path, f)
			if err != nil {
				tb.Fatal(err)
			}
			if err := s.RegisterArtifact(name, art); err != nil {
				tb.Fatal(err)
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := json.Marshal(PredictRequest{Model: "m0", Inputs: [][]float64{make([]float64, 9)}})
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("cold-start predict: status %d", resp.StatusCode)
		}
		return float64(time.Since(start)) / float64(time.Millisecond)
	}
	runs := []float64{one(), one(), one()}
	sort.Float64s(runs)
	return runs[1]
}

// coldStartRows prices what the artifact format buys at boot: the same
// three models served from .aot files versus from saved-spec files.
func coldStartRows(tb testing.TB, f numfmt.Format) []coldStartStat {
	tb.Helper()
	dir := tb.TempDir()
	nets := coldStartModels(tb)
	specFiles := map[string]string{}
	aotFiles := map[string]string{}
	for name, net := range nets {
		specPath := dir + "/" + name + ".model"
		fh, err := os.Create(specPath)
		if err != nil {
			tb.Fatal(err)
		}
		if err := net.Save(fh); err != nil {
			tb.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			tb.Fatal(err)
		}
		specFiles[name] = specPath
		art, err := artifact.Build(net, f)
		if err != nil {
			tb.Fatal(err)
		}
		aotPath := dir + "/" + name + ".aot"
		if err := artifact.WriteFile(aotPath, art); err != nil {
			tb.Fatal(err)
		}
		aotFiles[name] = aotPath
	}
	return []coldStartStat{
		{Mode: "compile-from-spec", Models: len(nets), Format: f.String(),
			TimeToFirst200Ms: timeToFirst200(tb, specFiles, f)},
		{Mode: "artifact-load", Models: len(nets), Format: f.String(),
			TimeToFirst200Ms: timeToFirst200(tb, aotFiles, f)},
	}
}

// TestWriteServeBenchJSON regenerates the committed serving baseline.
// Run with:
//
//	ERRPROP_SERVE_BENCH_OUT=BENCH_serve.json go test ./internal/serve -run TestWriteServeBenchJSON -count=1
func TestWriteServeBenchJSON(t *testing.T) {
	out := os.Getenv("ERRPROP_SERVE_BENCH_OUT")
	if out == "" {
		t.Skip("set ERRPROP_SERVE_BENCH_OUT to write the serving bench trajectory")
	}
	const perClient = 150
	var runs []loadStats
	for _, clients := range []int{1, 8, 64} {
		s := benchServer(t, 64)
		st := runLoad(t, s, clients, perClient)
		st.Mode = "batched"
		s.Close()
		runs = append(runs, st)
	}
	sSingle := New(Config{Workers: 2, MaxBatch: 1, QueueCap: 4096, RequestTimeout: 30 * time.Second})
	registerNet(t, sSingle, "h2", h2Net(t), numfmt.FP32)
	stSingle := runLoad(t, sSingle, 64, perClient)
	stSingle.Mode = "single"
	sSingle.Close()
	runs = append(runs, stSingle)

	// Gateway-fronted fleets at the same 64-client load. The interesting
	// number is the ratio against the direct batched server: it prices
	// the routing hop (and, on this single-CPU container, the fact that
	// N backends and the gateway all share one core — fleet rows here
	// measure overhead, not scaling; scaling needs cores to scale onto).
	for _, n := range []int{2, 4} {
		base := benchFleet(t, n, 64)
		st := runLoadURL(t, base, 64, perClient)
		st.Mode = fmt.Sprintf("gateway-%d-backends", n)
		runs = append(runs, st)
	}

	coldStart := coldStartRows(t, numfmt.INT8)

	doc := map[string]any{
		"bench":       "serve",
		"model":       "h2-mlp 9-50-50-9 tanh (untrained, fp32)",
		"description": "HTTP load generator against the internal/serve micro-batching service; req_per_sec counts 200s, latencies are client-side per request; gateway-N rows route the same load through errpropd -gateway over N backends sharing this container's single CPU, so their ratio prices the routing hop, not horizontal scaling; cold_start rows time boot-to-first-200 with three models served from compiled .aot artifacts versus saved specs",
		"config": map[string]any{
			"workers":   2,
			"max_batch": 64,
			"queue_cap": 4096,
		},
		"requests_per_client":             perClient,
		"runs":                            runs,
		"cold_start":                      coldStart,
		"speedup_batched_vs_single_at_64": runs[2].ReqPerSec / stSingle.ReqPerSec,
		"gateway_2_vs_direct_ratio_at_64": runs[4].ReqPerSec / runs[2].ReqPerSec,
		"gateway_4_vs_direct_ratio_at_64": runs[5].ReqPerSec / runs[2].ReqPerSec,
		"cold_start_artifact_speedup":     coldStart[0].TimeToFirst200Ms / coldStart[1].TimeToFirst200Ms,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (batched-vs-single speedup at 64 clients: %.2fx)", out, runs[2].ReqPerSec/stSingle.ReqPerSec)
}

// BenchmarkServePredict measures end-to-end served request throughput at
// a fixed 64-client contention level; b.N requests are spread across the
// clients.
func BenchmarkServePredict(b *testing.B) {
	for _, mode := range []struct {
		name     string
		maxBatch int
	}{{"batched", 64}, {"single", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			s := New(Config{Workers: 2, MaxBatch: mode.maxBatch, QueueCap: 4096, RequestTimeout: 30 * time.Second})
			registerNet(b, s, "h2", h2Net(b), numfmt.FP32)
			defer s.Close()
			const clients = 64
			perClient := b.N/clients + 1
			b.ResetTimer()
			st := runLoad(b, s, clients, perClient)
			b.StopTimer()
			if st.OK != st.Requests {
				b.Fatalf("non-200s under bench: %+v", st)
			}
			b.ReportMetric(st.ReqPerSec, "req/s")
			b.ReportMetric(st.P99ms, "p99-ms")
		})
	}
}
