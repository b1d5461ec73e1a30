package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/artifact"
)

// Config tunes a Gateway. The zero value is usable; every field has a
// production-shaped default.
type Config struct {
	// ProbeInterval is how often each backend's /healthz is probed
	// (default 250ms). SetBackends and LoadRegistryFile probe a joining
	// backend at once; the interval is how soon a backend that died or
	// restarted on its old address is seen, and its breaker re-closes.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// BreakerCooldown is how long a tripped breaker blocks traffic
	// before admitting a half-open trial (default 2s).
	BreakerCooldown time.Duration
	// MaxAttempts bounds one request's total send attempts across
	// backends, first try included (default 3).
	MaxAttempts int
	// BackoffBase is the first retry's backoff (default 25ms); attempt k
	// waits Base<<k, jittered, capped at BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps one retry wait, including an honored Retry-After
	// (default 2s).
	BackoffMax time.Duration
	// RequestTimeout bounds one client request end to end, retries and
	// backoff included (default 15s).
	RequestTimeout time.Duration
	// Seed seeds the deterministic retry jitter (internal/detrand).
	// Jitter is a pure function of (Seed, request key, attempt), so a
	// fault drill replays with identical waits.
	Seed uint64
}

const (
	// breakerThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker.
	breakerThreshold = 3
	// maxBodyBytes caps accepted request bodies.
	maxBodyBytes = 32 << 20
	// retryAfter is the Retry-After hint, in seconds, on
	// gateway-generated 503s.
	retryAfter = "1"
	// vnodes is the consistent-hash virtual nodes per backend weight
	// unit.
	vnodes = 64
)

func (c *Config) fillDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
}

// backend is one routable process and its health/traffic state.
type backend struct {
	name   string
	addr   string
	weight int

	breaker *breaker

	mu       sync.Mutex
	alive    bool            // last probe reached the process
	ready    bool            // last probe said ready (serving, not draining)
	models   map[string]bool // model names the backend advertises
	lastErr  string          // last probe failure, for /healthz detail
	draining bool            // removed from the registry; no new traffic

	requests  atomic.Int64 // proxied requests sent (attempts)
	failures  atomic.Int64 // attempts that failed (conn error or 503)
	proxiedOK atomic.Int64 // attempts answered with a non-503 response
}

// eligible reports whether the backend may receive a request for model
// now: advertised, ready, not draining, breaker admitting. An empty
// model means a model-agnostic endpoint (/v1/models) — any ready
// backend qualifies.
func (b *backend) eligible(model string, now time.Time) bool {
	b.mu.Lock()
	ok := b.ready && !b.draining && (model == "" || b.models[model])
	b.mu.Unlock()
	return ok && b.breaker.allow(now)
}

// setProbe records a probe outcome.
func (b *backend) setProbe(alive, ready bool, models []string, errDetail string) {
	b.mu.Lock()
	b.alive, b.ready = alive, ready
	b.lastErr = errDetail
	if models != nil {
		mm := make(map[string]bool, len(models))
		for _, m := range models {
			mm[m] = true
		}
		b.models = mm
	}
	b.mu.Unlock()
}

// Gateway routes inference requests across a fleet of errpropd
// backends. Create with New, give it backends with SetBackends or
// LoadRegistryFile, mount Handler, stop with Close.
type Gateway struct {
	cfg     Config
	metrics *gwMetrics
	client  *http.Client

	mu       sync.RWMutex
	backends map[string]*backend // by name
	ring     *ring
	// artifacts holds the verified ahead-of-time artifacts pinned by the
	// last loaded registry, by model name. A model present here gets its
	// /v1/plan answer computed gateway-side, with zero backend
	// round-trips; so does /v1/models once every model the ready fleet
	// advertises is pinned.
	artifacts map[string]*artifact.Artifact
	reloads   atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a gateway with no backends (everything routes to a typed
// 503 until SetBackends or LoadRegistryFile installs a fleet).
func New(cfg Config) *Gateway {
	cfg.fillDefaults()
	g := &Gateway{
		cfg:     cfg,
		metrics: newGWMetrics(),
		client: &http.Client{
			// Per-attempt timeouts come from the request context; the
			// client itself must not add a second clock.
			Timeout: 0,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		backends: make(map[string]*backend),
		ring:     buildRing(nil),
		stop:     make(chan struct{}),
	}
	g.wg.Add(1)
	go g.probeLoop()
	return g
}

// Config reports the effective (defaults-filled) configuration.
func (g *Gateway) Config() Config { return g.cfg }

// SetBackends installs the desired backend set, diffing against the
// current one: vanished backends drain (no new traffic; in-flight
// proxied requests complete because the proxy holds its own
// reference), surviving backends keep their breaker and traffic state —
// a reload is not an excuse to forget that a backend was misbehaving —
// and each new backend, or known name on a new address, is probed
// before SetBackends returns, so it routes as soon as it answers ready.
func (g *Gateway) SetBackends(list []Backend) error {
	reg := &Registry{Backends: list}
	if err := reg.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	joined := g.swapBackendsLocked(list)
	g.mu.Unlock()
	g.probeEach(joined)
	return nil
}

// swapBackendsLocked replaces the fleet and its ring with list and
// returns the backends that joined with fresh state. g.mu must be held.
func (g *Gateway) swapBackendsLocked(list []Backend) []*backend {
	var joined []*backend
	next := make(map[string]*backend, len(list))
	for _, nb := range list {
		if old, ok := g.backends[nb.Name]; ok && old.addr == nb.Addr {
			old.weight = weightOr1(nb.Weight)
			old.mu.Lock()
			old.draining = false
			old.mu.Unlock()
			next[nb.Name] = old
			continue
		}
		// New backend, or a known name on a new address (a restart): fresh
		// state, probed before it takes traffic.
		b := &backend{
			name:    nb.Name,
			addr:    nb.Addr,
			weight:  weightOr1(nb.Weight),
			breaker: newBreaker(breakerThreshold, g.cfg.BreakerCooldown),
		}
		next[nb.Name] = b
		joined = append(joined, b)
	}
	for name, old := range g.backends {
		if _, kept := next[name]; !kept {
			old.mu.Lock()
			old.draining = true
			old.mu.Unlock()
		}
	}
	g.backends = next
	g.ring = buildRing(orderedBackends(next))
	return joined
}

func weightOr1(w int) int {
	if w <= 0 {
		return 1
	}
	return w
}

// orderedBackends returns the map's values sorted by name, so ring
// construction (and anything else that iterates the fleet) is
// deterministic run to run.
func orderedBackends(m map[string]*backend) []*backend {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*backend, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// ErrArtifactMismatch means a registry-pinned artifact file decodes to
// a different checksum identity than the manifest declares — the file
// under the path is not the artifact the operator pinned.
var ErrArtifactMismatch = errors.New("gateway: artifact does not match manifest checksum")

// LoadRegistryFile reads, verifies, and installs a registry manifest.
// A corrupt or truncated file is refused with a typed integrity error
// and the current fleet stays exactly as it was — a reload is applied
// atomically or not at all. Artifact references are verified before
// anything is installed: every referenced file must decode (full
// integrity + consistency checks, see internal/artifact) and match its
// pinned checksum, or the whole reload is refused.
func (g *Gateway) LoadRegistryFile(path string) error {
	reg, err := ReadRegistryFile(path)
	if err != nil {
		return err
	}
	arts, err := verifyArtifacts(reg.Artifacts, filepath.Dir(path))
	if err != nil {
		return err
	}
	g.mu.Lock()
	joined := g.swapBackendsLocked(reg.Backends)
	g.artifacts = arts
	g.mu.Unlock()
	g.probeEach(joined)
	g.reloads.Add(1)
	return nil
}

// verifyArtifacts loads every referenced artifact and checks it against
// its pinned checksum. Relative paths resolve against baseDir (the
// registry file's directory).
func verifyArtifacts(refs []ArtifactRef, baseDir string) (map[string]*artifact.Artifact, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	arts := make(map[string]*artifact.Artifact, len(refs))
	for _, ref := range refs {
		p := ref.Path
		if !filepath.IsAbs(p) {
			p = filepath.Join(baseDir, p)
		}
		a, err := artifact.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("gateway: artifact %s for model %q: %w", p, ref.Model, err)
		}
		if a.Checksum != ref.Checksum {
			return nil, fmt.Errorf("gateway: artifact %s for model %q: %w: file is %s, manifest pins %s", p, ref.Model, ErrArtifactMismatch, a.Checksum, ref.Checksum)
		}
		arts[ref.Model] = a
	}
	return arts, nil
}

// artifactFor returns the verified artifact pinned for model, if any.
func (g *Gateway) artifactFor(model string) (*artifact.Artifact, bool) {
	g.mu.RLock()
	a, ok := g.artifacts[model]
	g.mu.RUnlock()
	return a, ok
}

// pinnedFleet returns the pinned artifacts when they cover the fleet:
// at least one is pinned, and every model a ready backend advertises is
// among them. Otherwise it returns nil.
func (g *Gateway) pinnedFleet() map[string]*artifact.Artifact {
	g.mu.RLock()
	arts := g.artifacts
	list := orderedBackends(g.backends)
	g.mu.RUnlock()
	if len(arts) == 0 {
		return nil
	}
	for _, b := range list {
		b.mu.Lock()
		for m := range b.models {
			if b.ready && !b.draining && arts[m] == nil {
				b.mu.Unlock()
				return nil
			}
		}
		b.mu.Unlock()
	}
	return arts
}

// Backends reports the current fleet's status, sorted by name.
func (g *Gateway) Backends() []BackendStatus {
	g.mu.RLock()
	list := orderedBackends(g.backends)
	g.mu.RUnlock()
	out := make([]BackendStatus, 0, len(list))
	for _, b := range list {
		out = append(out, b.status())
	}
	return out
}

// ringOrder returns the ring-walk order for key against the current
// fleet: primary owner first, then the deterministic fallback sequence.
func (g *Gateway) ringOrder(key uint64) []*backend {
	g.mu.RLock()
	r := g.ring
	g.mu.RUnlock()
	return r.order(key)
}

// probeLoop drives the periodic health probes: every ProbeInterval it
// snapshots the fleet and probes each backend concurrently. It does not
// probe at start: a gateway has no fleet until SetBackends or
// LoadRegistryFile installs one, and those probe what they install.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.mu.RLock()
			list := orderedBackends(g.backends)
			g.mu.RUnlock()
			g.probeEach(list)
		}
	}
}

// probeEach probes the backends concurrently and returns once every
// probe has finished.
func (g *Gateway) probeEach(list []*backend) {
	var wg sync.WaitGroup
	for _, b := range list {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(b)
		}(b)
	}
	wg.Wait()
}

// Close stops the prober. In-flight proxied requests complete; new
// ones are refused by the HTTP server shutting down above us (the
// gateway itself has no admission queue to drain).
func (g *Gateway) Close() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// WaitReady blocks until some backend is ready to serve model or the
// timeout elapses. A backend that answered its join probe ready is
// ready at once; one that did not waits for a later probe tick.
// Intended for tests and boot sequencing, not the request path.
func (g *Gateway) WaitReady(model string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		g.mu.RLock()
		list := orderedBackends(g.backends)
		g.mu.RUnlock()
		for _, b := range list {
			b.mu.Lock()
			ok := b.ready && !b.draining && b.models[model]
			b.mu.Unlock()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway: no backend became ready for model %q within %s", model, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
