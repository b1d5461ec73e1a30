// Command errpropd is the error-propagation inference daemon: it loads
// one or more models — compiled .aot artifacts, or saved networks
// (nn.Save format) that it compiles into artifacts in memory at -format —
// and serves batched predictions over HTTP with per-request QoI error
// budgets (see internal/serve).
//
// Usage:
//
//	errpropd -addr :8080 -model h2=h2.model -model flame=flame.model -format fp16
//	errpropd -addr 127.0.0.1:0 -demo -portfile /tmp/errpropd.port
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/models,
// POST /v1/predict (JSON or application/x-errprop-blob),
// POST /v1/plan.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// in-flight and queued requests complete, workers exit, then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	errprop "github.com/scidata/errprop"
)

// modelFlag is one -model name=path pair.
type modelFlag struct {
	name, path string
}

// parseModelFlag splits a -model argument of the form name=path.
func parseModelFlag(arg string) (modelFlag, error) {
	name, path, ok := strings.Cut(arg, "=")
	if !ok || name == "" || path == "" {
		return modelFlag{}, fmt.Errorf("-model wants name=path, got %q", arg)
	}
	return modelFlag{name: name, path: path}, nil
}

// demoNetwork builds the built-in demo model (the paper's H2-combustion
// MLP shape, deterministic untrained weights) so smoke tests need no
// model file.
func demoNetwork() (*errprop.Network, error) {
	return errprop.MLPSpec("demo", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(1)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// loadModel resolves one -model (or, with an empty path, the built-in
// demo) into the artifact it serves: an .aot file is decoded and
// verified, and a saved network is compiled at f in memory. built
// reports the latter.
func loadModel(m modelFlag, f errprop.Format) (art *errprop.Artifact, built bool, err error) {
	if m.path != "" {
		return errprop.LoadArtifact(m.path, f)
	}
	net, err := demoNetwork()
	if err != nil {
		return nil, false, err
	}
	art, err = errprop.BuildArtifact(net, f)
	return art, true, err
}

// runCompile is -compile: the single blessed producer of ahead-of-time
// artifacts. Each -model (and -demo) is compiled at format f —
// quantization, op-program compilation, error-flow analysis, certified
// bound — and written to <out>/<name>.aot.
func runCompile(outDir string, f errprop.Format, models []modelFlag) error {
	for _, m := range models {
		art, built, err := loadModel(m, f)
		if err != nil {
			return err
		}
		if !built {
			return fmt.Errorf("%s is already a compiled artifact", m.path)
		}
		path := filepath.Join(outDir, m.name+".aot")
		if err := errprop.WriteArtifactFile(path, art); err != nil {
			return err
		}
		log.Printf("compiled %q -> %s (format %s, certified bound %g, %s)", m.name, path, art.Format, art.QuantBound, art.Checksum)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("errpropd", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		format   = fs.String("format", "fp32", "weight format models built from a spec are compiled at (fp32|tf32|bf16|fp16|int8|fp8e4m3|fp8e5m2); an .aot artifact keeps its own")
		demo     = fs.Bool("demo", false, "also register a built-in demo model named \"demo\"")
		portfile = fs.String("portfile", "", "write the bound address to this file once listening")

		maxBatch = fs.Int("max-batch", 32, "micro-batch size limit")
		queueCap = fs.Int("queue", 1024, "admission queue capacity per model")
		workers  = fs.Int("workers", 4, "inference engines per model")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")

		compileMode = fs.Bool("compile", false, "compile each -model (and -demo) into an ahead-of-time artifact at -format instead of serving, then exit")
		outDir      = fs.String("out", ".", "compile: directory artifacts are written to, one <name>.aot per model")

		gatewayMode = fs.Bool("gateway", false, "run as a routing gateway over a fleet of errpropd backends instead of serving models directly")
		spawn       = fs.Int("spawn", 0, "gateway: spawn this many backend child processes (re-invoking this binary with the serving flags) and supervise them")
		registry    = fs.String("registry", "", "gateway: checksummed fleet manifest to route to; SIGHUP re-reads it (corrupt manifests are refused, keeping the current fleet)")
		probeEvery  = fs.Duration("probe", 250*time.Millisecond, "gateway: health-probe interval")
		retries     = fs.Int("retries", 3, "gateway: total send attempts per request, first try included")
		seed        = fs.Uint64("seed", 1, "gateway: retry-jitter seed (drills replay bit-identically for a fixed seed)")
	)
	var models []modelFlag
	fs.Func("model", "register a model as name=path (repeatable)", func(arg string) error {
		m, err := parseModelFlag(arg)
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gatewayMode {
		return runGateway(gatewayOpts{
			addr:       *addr,
			portfile:   *portfile,
			spawn:      *spawn,
			registry:   *registry,
			probeEvery: *probeEvery,
			retries:    *retries,
			seed:       *seed,
			backendArgs: backendArgs(backendFlags{
				format: *format, demo: *demo, models: models,
				maxBatch: *maxBatch, queueCap: *queueCap,
				workers: *workers, timeout: *timeout,
			}),
		})
	}
	if *spawn > 0 || *registry != "" {
		return fmt.Errorf("-spawn and -registry require -gateway")
	}
	if *demo {
		models = append(models, modelFlag{name: "demo"})
	}
	if len(models) == 0 {
		if *compileMode {
			return fmt.Errorf("nothing to compile: pass -model name=path and/or -demo")
		}
		return fmt.Errorf("nothing to serve: pass -model name=path and/or -demo")
	}
	f, err := errprop.ParseFormat(strings.ToLower(*format))
	if err != nil {
		return fmt.Errorf("-format: %w", err)
	}
	if *compileMode {
		return runCompile(*outDir, f, models)
	}

	srv := errprop.NewServer(errprop.ServeConfig{
		MaxBatch:       *maxBatch,
		QueueCap:       *queueCap,
		Workers:        *workers,
		RequestTimeout: *timeout,
	})
	for _, m := range models {
		// A damaged artifact or model file is a boot refusal naming the
		// file, never a silently served model.
		art, _, err := loadModel(m, f)
		if err != nil {
			return fmt.Errorf("refusing to boot: %w", err)
		}
		if err := srv.RegisterArtifact(m.name, art); err != nil {
			return err
		}
		log.Printf("registered %q (format %s, %s)", m.name, art.Format, art.Checksum)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	log.Printf("errpropd listening on %s", bound)
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received; draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	srv.Close()
	log.Printf("drained; exiting")
	return nil
}
