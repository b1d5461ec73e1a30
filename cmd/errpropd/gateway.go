// Gateway mode: errpropd -gateway routes /v1/* across a fleet of
// errpropd backends (internal/gateway) instead of serving models
// itself. The fleet comes from one of two places:
//
//   - -spawn N: the supervisor resolves each -model and -demo once, at
//     -format, and writes each model it builds to its scratch directory
//     as <name>.aot; an .aot input is referenced in place. It re-invokes
//     its own binary N times on those artifacts (-model name=<aot> plus
//     the serving flags) and respawns any child that dies. After boot
//     and after every respawn it writes a registry of the children and
//     the pinned artifacts and installs it through LoadRegistryFile,
//     the path an operator registry takes. So a spawned fleet gets the
//     same checksum verification, /v1/plan is answered from the pinned
//     artifacts, and a damaged model file is refused once, at boot.
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
	"github.com/scidata/errprop/internal/integrity"
)

type gatewayOpts struct {
	addr       string
	portfile   string
	spawn      int
	registry   string
	probeEvery time.Duration
	retries    int
	seed       uint64
	// models (with -demo as a model named "demo"), format and serving
	// configure a -spawn fleet.
	models  []modelFlag
	format  errprop.Format
	serving backendFlags
}

// backendFlags carries the serving flags a spawned backend inherits.
type backendFlags struct {
	maxBatch int
	queueCap int
	workers  int
	timeout  time.Duration
}

// backendArgs renders a spawned child's argv, minus -addr/-portfile
// (the supervisor owns those): the serving flags, then one -model per
// pinned artifact. A child serves each artifact as built, so -format
// and -demo are not passed on.
func backendArgs(f backendFlags, refs []errprop.GatewayArtifactRef) []string {
	args := []string{
		"-max-batch", strconv.Itoa(f.maxBatch),
		"-queue", strconv.Itoa(f.queueCap),
		"-workers", strconv.Itoa(f.workers),
		"-timeout", f.timeout.String(),
	}
	for _, ref := range refs {
		args = append(args, "-model", ref.Model+"="+ref.Path)
	}
	return args
}

// pinModels resolves each model of a -spawn fleet once, through
// loadModel: a model built from a saved network or -demo is written to
// <dir>/<name>.aot, exactly as -compile writes it, and an .aot input is
// referenced in place. Each ref pins the artifact's absolute path and
// checksum.
func pinModels(dir string, models []modelFlag, f errprop.Format) ([]errprop.GatewayArtifactRef, error) {
	refs := make([]errprop.GatewayArtifactRef, 0, len(models))
	for _, m := range models {
		art, built, err := loadModel(m, f)
		if err != nil {
			return nil, fmt.Errorf("refusing to boot: %w", err)
		}
		path := m.path
		if built {
			path = filepath.Join(dir, m.name+".aot")
			err = errprop.WriteArtifactFile(path, art)
		} else {
			path, err = filepath.Abs(path)
		}
		if err != nil {
			return nil, err
		}
		log.Printf("gateway: pinned %q (format %s, %s) at %s", m.name, art.Format, art.Checksum, path)
		refs = append(refs, errprop.GatewayArtifactRef{Model: m.name, Path: path, Checksum: art.Checksum})
	}
	return refs, nil
}

func runGateway(opts gatewayOpts) error {
	if (opts.spawn > 0) == (opts.registry != "") {
		return fmt.Errorf("gateway needs exactly one fleet source: -spawn N or -registry path")
	}
	if opts.spawn > 0 && len(opts.models) == 0 {
		return fmt.Errorf("nothing to serve: pass -model name=path and/or -demo")
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
		sup, err = startSupervisor(g, opts)
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
		if err := integrity.WriteFileAtomic(opts.portfile, []byte(bound)); err != nil {
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
	dir  string
	refs []errprop.GatewayArtifactRef
	args []string

	// installMu serializes install, so an older snapshot of the fleet
	// never lands after a newer one.
	installMu sync.Mutex

	mu       sync.Mutex
	backends []errprop.GatewayBackend // by child index; Addr "" until spawned
	procs    []*exec.Cmd
	stopping bool
	wg       sync.WaitGroup
}

func startSupervisor(g *errprop.Gateway, opts gatewayOpts) (*supervisor, error) {
	dir, err := os.MkdirTemp("", "errpropd-gw-")
	if err != nil {
		return nil, err
	}
	refs, err := pinModels(dir, opts.models, opts.format)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s := &supervisor{
		g:        g,
		dir:      dir,
		refs:     refs,
		args:     backendArgs(opts.serving, refs),
		backends: make([]errprop.GatewayBackend, opts.spawn),
		procs:    make([]*exec.Cmd, opts.spawn),
	}
	for i := range s.backends {
		if err := s.spawnOne(i); err != nil {
			s.stopAll()
			return nil, err
		}
	}
	if err := s.install(); err != nil {
		s.stopAll()
		return nil, err
	}
	return s, nil
}

// spawnOne starts (or restarts) child i and waits for its portfile.
// The child routes once install puts its address in the fleet.
func (s *supervisor) spawnOne(i int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("backend-%d", i)
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
	s.backends[i] = errprop.GatewayBackend{Name: name, Addr: addr, Weight: 1}
	s.procs[i] = cmd
	s.mu.Unlock()
	log.Printf("gateway: %s up on %s (pid %d)", name, addr, cmd.Process.Pid)

	s.wg.Add(1)
	go s.reap(i, cmd)
	return nil
}

// install writes the fleet's registry (every spawned child's address
// and the pinned artifacts) to the scratch directory and installs it
// through LoadRegistryFile, which re-verifies each artifact against its
// checksum and probes each child that joined.
func (s *supervisor) install() error {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	reg := &errprop.GatewayRegistry{Artifacts: s.refs}
	s.mu.Lock()
	for _, b := range s.backends {
		if b.Addr != "" {
			reg.Backends = append(reg.Backends, b)
		}
	}
	s.mu.Unlock()
	path := filepath.Join(s.dir, "fleet.reg")
	if err := errprop.WriteGatewayRegistry(path, reg); err != nil {
		return err
	}
	return s.g.LoadRegistryFile(path)
}

// reap waits for child i and respawns it unless the supervisor is
// shutting down — the in-process half of the kill-a-backend drill.
func (s *supervisor) reap(i int, cmd *exec.Cmd) {
	defer s.wg.Done()
	err := cmd.Wait()
	s.mu.Lock()
	stopping := s.stopping
	name := s.backends[i].Name
	s.mu.Unlock()
	if stopping {
		return
	}
	log.Printf("gateway: %s died (%v); respawning", name, err)
	time.Sleep(100 * time.Millisecond)
	err = s.spawnOne(i)
	if err == nil {
		err = s.install()
	}
	if err != nil {
		log.Printf("gateway: respawning %s failed: %v (its keys fail over to the rest of the fleet)", name, err)
	}
}

// stopAll SIGTERMs every child, waits for them to drain, and removes
// the scratch dir.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	s.stopping = true
	procs := append([]*exec.Cmd(nil), s.procs...)
	s.mu.Unlock()
	for _, c := range procs {
		if c != nil {
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
