package gateway

import (
	"sort"
	"sync/atomic"
)

// gwMetrics is the gateway's counter plane (lock-free atomics,
// snapshotted on demand by /metrics).
type gwMetrics struct {
	requests   atomic.Int64 // client requests received (all endpoints routed)
	ok         atomic.Int64 // responses relayed with status < 500
	relayed5xx atomic.Int64 // backend 5xx responses relayed verbatim
	failed     atomic.Int64 // gateway-generated 5xx (no backend could answer)
	retries    atomic.Int64 // re-sends after a failed attempt
	probeFails atomic.Int64 // health probes that found a backend dead/broken
}

func newGWMetrics() *gwMetrics { return &gwMetrics{} }

// BackendStatus is one backend's slice of the gateway's /metrics and
// /healthz bodies.
type BackendStatus struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	Ready bool   `json:"ready"`
	// Draining means the backend was removed from the registry and is
	// finishing in-flight work; it receives no new traffic.
	Draining bool `json:"draining,omitempty"`
	// Breaker is "closed", "open", or "half-open".
	Breaker string `json:"breaker"`
	// ConsecFails is the breaker's current consecutive-failure run.
	ConsecFails int `json:"consec_fails"`
	// BreakerTrips counts times the breaker opened.
	BreakerTrips int64 `json:"breaker_trips_total"`
	// Requests counts proxied attempts sent to this backend.
	Requests int64 `json:"requests_total"`
	// Failures counts attempts that failed (connection error or 503).
	Failures int64 `json:"failures_total"`
	// LastError is the most recent probe failure detail, if any.
	LastError string `json:"last_error,omitempty"`
	// Models lists the model names the backend advertises, sorted.
	Models []string `json:"models,omitempty"`
}

// status snapshots one backend.
func (b *backend) status() BackendStatus {
	state, fails, trips := b.breaker.snapshot()
	b.mu.Lock()
	models := make([]string, 0, len(b.models))
	for m := range b.models {
		models = append(models, m)
	}
	st := BackendStatus{
		Name:         b.name,
		Addr:         b.addr,
		Alive:        b.alive,
		Ready:        b.ready,
		Draining:     b.draining,
		Breaker:      state.String(),
		ConsecFails:  fails,
		BreakerTrips: trips,
		Requests:     b.requests.Load(),
		Failures:     b.failures.Load(),
		LastError:    b.lastErr,
	}
	b.mu.Unlock()
	sort.Strings(models)
	st.Models = models
	return st
}

// Snapshot is the gateway's point-in-time metrics view, also the JSON
// body served at GET /metrics.
type Snapshot struct {
	Requests   int64 `json:"requests_total"`
	OK         int64 `json:"ok_total"`
	Relayed5xx int64 `json:"relayed_5xx_total"`
	Failed     int64 `json:"failed_total"`
	Retries    int64 `json:"retries_total"`
	ProbeFails int64 `json:"probe_failures_total"`
	// Reloads counts registries installed by LoadRegistryFile: an
	// operator's boot load and SIGHUP reloads, and each install an
	// errpropd -spawn supervisor makes at boot and after a respawn.
	Reloads int64 `json:"registry_reloads_total"`

	// CacheHits and CacheMisses are always zero: the gateway has no
	// response cache. They remain only because the benchmark's
	// bench/online.go still reads them; they go with that read.
	CacheHits   int64 `json:"-"`
	CacheMisses int64 `json:"-"`

	Ready    bool            `json:"ready"`
	Backends []BackendStatus `json:"backends"`
}

// Metrics snapshots the whole metrics plane.
func (g *Gateway) Metrics() Snapshot {
	m := g.metrics
	snap := Snapshot{
		Requests:   m.requests.Load(),
		OK:         m.ok.Load(),
		Relayed5xx: m.relayed5xx.Load(),
		Failed:     m.failed.Load(),
		Retries:    m.retries.Load(),
		ProbeFails: m.probeFails.Load(),
		Reloads:    g.reloads.Load(),
		Backends:   g.Backends(),
	}
	for _, b := range snap.Backends {
		if b.Ready && !b.Draining {
			snap.Ready = true
		}
	}
	return snap
}
