package serve

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// metrics is the server's expvar-style metrics plane: lock-free atomic
// counters and fixed-bucket histograms, snapshotted on demand by
// /metrics. Everything is monotonic except the queue-depth gauge, which
// is computed at snapshot time.
type metrics struct {
	requests atomic.Int64 // predict requests received (all outcomes)
	ok       atomic.Int64 // 200s
	rejected atomic.Int64 // 503s (queue full or draining)
	timedOut atomic.Int64 // 504s (request deadline expired)
	failed   atomic.Int64 // other 4xx/5xx (bad input, unknown model, budget)

	samples atomic.Int64 // samples executed by workers
	batches atomic.Int64 // forward passes executed by workers

	batchSize *histogram // samples per executed batch
	latency   *histogram // successful request latency, seconds
	queueWait *histogram // admission to a worker taking the request's first sample, seconds
}

func newMetrics() *metrics {
	seconds := []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5, 10,
	}
	return &metrics{
		batchSize: newHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256),
		latency:   newHistogram(seconds...),
		queueWait: newHistogram(seconds...),
	}
}

// histogram is a fixed-bucket histogram safe for concurrent observe.
// Bucket i counts observations v <= bounds[i]; the final implicit bucket
// counts overflow.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
}

// quantile returns an upper-bound estimate of the q-th quantile: the
// upper edge of the bucket holding that observation, clamped to the
// largest finite bound for the overflow bucket. Returns 0 on an empty
// histogram.
func (h *histogram) quantile(q float64) float64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Bucket is one histogram bucket in a Snapshot; LE is the inclusive
// upper bound ("+Inf" for the overflow bucket).
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

func (h *histogram) buckets(scale float64) []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i]*scale, 'g', -1, 64)
		}
		out = append(out, Bucket{LE: le, Count: h.counts[i].Load()})
	}
	return out
}

// ModelStats is one model's slice of the metrics plane.
type ModelStats struct {
	Format     string  `json:"format"`
	InDim      int     `json:"in_dim"`
	OutDim     int     `json:"out_dim"`
	QuantBound float64 `json:"quant_bound"`
	// Checksum is the served artifact's identity: the CRC32C of its body
	// ("crc32c:xxxxxxxx"), the same string `errpropd -compile` logs and a
	// gateway registry pins. A spec model reports the checksum of the
	// artifact built from it in memory, so it differs per serving format
	// and equals the checksum of the .aot file compiled at that format.
	Checksum string `json:"checksum"`
	Requests int64  `json:"requests_total"`
	Samples  int64  `json:"samples_total"`
	// Admitted counts samples accepted into the queue, incremented at
	// admission — unlike Samples, which counts at completion — so
	// Admitted > Samples+QueueDepth exposes in-flight work.
	Admitted   int64 `json:"admitted_total"`
	QueueDepth int   `json:"queue_depth"`
}

// Snapshot is a point-in-time view of the metrics plane, also the JSON
// body served at /metrics.
type Snapshot struct {
	Requests int64 `json:"requests_total"`
	OK       int64 `json:"ok_total"`
	Rejected int64 `json:"rejected_total"`
	TimedOut int64 `json:"timedout_total"`
	Failed   int64 `json:"failed_total"`

	Samples    int64   `json:"samples_total"`
	Batches    int64   `json:"batches_total"`
	BatchMean  float64 `json:"batch_size_mean"`
	QueueDepth int     `json:"queue_depth"`
	Draining   bool    `json:"draining"`

	LatencyP50ms   float64 `json:"latency_p50_ms"`
	LatencyP95ms   float64 `json:"latency_p95_ms"`
	LatencyP99ms   float64 `json:"latency_p99_ms"`
	QueueWaitP50ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99ms float64 `json:"queue_wait_p99_ms"`

	BatchSizeHist   []Bucket `json:"batch_size_hist"`
	LatencyHistMS   []Bucket `json:"latency_hist_ms"`
	QueueWaitHistMS []Bucket `json:"queue_wait_hist_ms"`

	Models map[string]ModelStats `json:"models"`
}

// Metrics snapshots the whole metrics plane.
func (s *Server) Metrics() Snapshot {
	m := s.metrics
	snap := Snapshot{
		Requests:        m.requests.Load(),
		OK:              m.ok.Load(),
		Rejected:        m.rejected.Load(),
		TimedOut:        m.timedOut.Load(),
		Failed:          m.failed.Load(),
		Samples:         m.samples.Load(),
		Batches:         m.batches.Load(),
		Draining:        s.draining.Load(),
		LatencyP50ms:    m.latency.quantile(0.50) * 1e3,
		LatencyP95ms:    m.latency.quantile(0.95) * 1e3,
		LatencyP99ms:    m.latency.quantile(0.99) * 1e3,
		QueueWaitP50ms:  m.queueWait.quantile(0.50) * 1e3,
		QueueWaitP99ms:  m.queueWait.quantile(0.99) * 1e3,
		BatchSizeHist:   m.batchSize.buckets(1),
		LatencyHistMS:   m.latency.buckets(1e3),
		QueueWaitHistMS: m.queueWait.buckets(1e3),
		Models:          make(map[string]ModelStats),
	}
	if snap.Batches > 0 {
		snap.BatchMean = float64(snap.Samples) / float64(snap.Batches)
	}
	s.mu.RLock()
	// Range in sorted order so the QueueDepth reduction and any future
	// order-sensitive aggregation stay deterministic run to run.
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		md := s.models[name]
		depth := int(md.depth.Load())
		snap.QueueDepth += depth
		snap.Models[name] = ModelStats{
			Format:     md.art.Format.String(),
			InDim:      md.inDim,
			OutDim:     md.outDim,
			QuantBound: md.analysis.QuantizationBound(),
			Checksum:   md.art.Checksum,
			Requests:   md.requests.Load(),
			Samples:    md.samples.Load(),
			Admitted:   md.admitted.Load(),
			QueueDepth: depth,
		}
	}
	s.mu.RUnlock()
	return snap
}
