// Gateway mode: errpropd -gateway routes /v1/* across a fleet of
// errpropd backends (internal/gateway) instead of serving models
// itself. The fleet comes from one of two places:
//
//   - -spawn N: the gateway re-invokes its own binary N times with the
//     serving flags, supervises the children, and respawns any that die
//     (the restarted child re-enters routing once a health probe sees
//     it ready and its circuit breaker re-closes).
//   - -registry path: a checksummed fleet manifest (see
//     errprop.WriteGatewayRegistry). SIGHUP re-reads it; a corrupt or
//     truncated manifest is refused with a typed integrity error and
//     the current fleet keeps serving — reloads apply atomically or
//     not at all.
//
// SIGINT/SIGTERM drains: the listener stops, in-flight proxied
// requests complete, children (if spawned) are SIGTERMed and reaped,
// then the process exits 0.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	errprop "github.com/scidata/errprop"
)

type gatewayOpts struct {
	addr        string
	portfile    string
	spawn       int
	registry    string
	probeEvery  time.Duration
	retries     int
	seed        uint64
	backendArgs []string
}

// backendFlags carries the serving flags a spawned backend inherits.
type backendFlags struct {
	format   string
	demo     bool
	models   []modelFlag
	maxBatch int
	queueCap int
	workers  int
	timeout  time.Duration
}

// backendArgs renders the serving flags back into argv form for a
// spawned child (minus -addr/-portfile, which the supervisor owns).
func backendArgs(f backendFlags) []string {
	args := []string{
		"-format", f.format,
		"-max-batch", strconv.Itoa(f.maxBatch),
		"-queue", strconv.Itoa(f.queueCap),
		"-workers", strconv.Itoa(f.workers),
		"-timeout", f.timeout.String(),
	}
	if f.demo {
		args = append(args, "-demo")
	}
	for _, m := range f.models {
		args = append(args, "-model", m.name+"="+m.path)
	}
	return args
}

func runGateway(opts gatewayOpts) error {
	if (opts.spawn > 0) == (opts.registry != "") {
		return fmt.Errorf("gateway needs exactly one fleet source: -spawn N or -registry path")
	}

	g := errprop.NewGateway(errprop.GatewayConfig{
		ProbeInterval: opts.probeEvery,
		MaxAttempts:   opts.retries,
		Seed:          opts.seed,
	})
	defer g.Close()

	var sup *supervisor
	if opts.spawn > 0 {
		var err error
		sup, err = startSupervisor(g, opts.spawn, opts.backendArgs)
		if err != nil {
			return err
		}
		defer sup.stopAll()
	} else {
		if err := g.LoadRegistryFile(opts.registry); err != nil {
			return fmt.Errorf("loading registry %s: %w", opts.registry, err)
		}
		log.Printf("gateway fleet loaded from %s (%d backends)", opts.registry, len(g.Backends()))
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	log.Printf("errpropd gateway listening on %s", bound)
	if opts.portfile != "" {
		if err := os.WriteFile(opts.portfile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: g.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	for {
		select {
		case err := <-errc:
			return err
		case <-hup:
			if opts.registry == "" {
				log.Printf("SIGHUP ignored: fleet is supervised (-spawn), not manifest-driven")
				continue
			}
			if err := g.LoadRegistryFile(opts.registry); err != nil {
				// Detect-or-refuse: the running fleet is untouched.
				log.Printf("registry reload REFUSED (fleet unchanged): %v", err)
				continue
			}
			log.Printf("registry reloaded from %s (%d backends)", opts.registry, len(g.Backends()))
		case <-ctx.Done():
			log.Printf("signal received; draining gateway")
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutdownCtx); err != nil {
				return err
			}
			log.Printf("drained; exiting")
			return nil
		}
	}
}

// supervisor owns the -spawn fleet: N children of this binary, each on
// an ephemeral port, respawned on death.
type supervisor struct {
	g    *errprop.Gateway
	args []string
	dir  string

	mu       sync.Mutex
	backends map[string]errprop.GatewayBackend // name -> current address
	procs    map[string]*exec.Cmd
	stopping bool
	wg       sync.WaitGroup
}

func startSupervisor(g *errprop.Gateway, n int, args []string) (*supervisor, error) {
	dir, err := os.MkdirTemp("", "errpropd-gw-")
	if err != nil {
		return nil, err
	}
	s := &supervisor{
		g:        g,
		args:     args,
		dir:      dir,
		backends: make(map[string]errprop.GatewayBackend, n),
		procs:    make(map[string]*exec.Cmd, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("backend-%d", i)
		if err := s.spawnOne(name); err != nil {
			s.stopAll()
			return nil, err
		}
	}
	return s, nil
}

// spawnOne starts (or restarts) the named child, waits for its
// portfile, and installs its address in the gateway's fleet.
func (s *supervisor) spawnOne(name string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	portfile := filepath.Join(s.dir, name+".port")
	_ = os.Remove(portfile)
	argv := append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile}, s.args...)
	cmd := exec.Command(self, argv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning %s: %w", name, err)
	}

	addr, err := awaitPortfile(portfile, 10*time.Second, cmd)
	if err != nil {
		_ = cmd.Process.Kill()
		return fmt.Errorf("%s: %w", name, err)
	}

	s.mu.Lock()
	s.backends[name] = errprop.GatewayBackend{Name: name, Addr: addr, Weight: 1}
	s.procs[name] = cmd
	list := make([]errprop.GatewayBackend, 0, len(s.backends))
	for _, b := range s.backends {
		list = append(list, b) //lint:ignore maporder SetBackends validates and sorts by name; install order is irrelevant
	}
	s.mu.Unlock()
	if err := s.g.SetBackends(list); err != nil {
		return err
	}
	log.Printf("gateway: %s up on %s (pid %d)", name, addr, cmd.Process.Pid)

	s.wg.Add(1)
	go s.reap(name, cmd)
	return nil
}

// reap waits for a child and respawns it unless the supervisor is
// shutting down — the in-process half of the kill-a-backend drill.
func (s *supervisor) reap(name string, cmd *exec.Cmd) {
	defer s.wg.Done()
	err := cmd.Wait()
	s.mu.Lock()
	stopping := s.stopping
	s.mu.Unlock()
	if stopping {
		return
	}
	log.Printf("gateway: %s died (%v); respawning", name, err)
	time.Sleep(100 * time.Millisecond)
	if rerr := s.spawnOne(name); rerr != nil {
		log.Printf("gateway: respawning %s failed: %v (its keys fail over to the rest of the fleet)", name, rerr)
	}
}

// stopAll SIGTERMs every child, waits for them to drain, and removes
// the portfile scratch dir.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	s.stopping = true
	procs := make([]*exec.Cmd, 0, len(s.procs))
	for _, c := range s.procs {
		procs = append(procs, c) //lint:ignore maporder every child gets the same signal; delivery order is irrelevant
	}
	s.mu.Unlock()
	for _, c := range procs {
		if c.Process != nil {
			_ = c.Process.Signal(syscall.SIGTERM)
		}
	}
	s.wg.Wait()
	_ = os.RemoveAll(s.dir)
}

// awaitPortfile polls for a child's portfile, failing fast if the
// child exits first.
func awaitPortfile(path string, timeout time.Duration, cmd *exec.Cmd) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := os.ReadFile(path)
		if err == nil && len(raw) > 0 {
			return string(raw), nil
		}
		if cmd.ProcessState != nil {
			return "", fmt.Errorf("backend exited before writing %s", path)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("backend wrote no portfile within %s", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
