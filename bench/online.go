package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/serve"
)

const (
	// interval is the open-loop schedule: a request every 2.5 ms
	// (400 req/s).
	interval = 2500 * time.Microsecond
	// warmupRequests go out closed-loop before measuring, so connections
	// are open and lazily built state exists.
	warmupRequests = 200
	// serveBoots and fleetBoots are how many cold boots set-up time is
	// the median of. A serve boot takes milliseconds; a gateway boot
	// waits a probe interval.
	serveBoots = 21
	fleetBoots = 5
	// latencyLimit is the closed-loop p99 a capacity figure must keep.
	latencyLimit = 10 * time.Millisecond
	// blobBlocks is the size of bulk-blob's pool of distinct bodies.
	blobBlocks = 256
)

// stack is the serving side of a workload: backends, and for fleet a
// gateway in front of them. url is where the load goes.
type stack struct {
	url      string
	backends []*backend
	gw       *gateway.Gateway
	gwHTTP   *httpServer
}

func (s *stack) close() error {
	var errs []error
	if s.gwHTTP != nil {
		errs = append(errs, s.gwHTTP.close())
		s.gw.Close()
	}
	for _, b := range s.backends {
		errs = append(errs, b.close())
	}
	return errors.Join(errs...)
}

// served sums the backends' executed samples and batches.
func (s *stack) served() (samples, batches int64) {
	for _, b := range s.backends {
		m := b.srv.Metrics()
		samples += m.Samples
		batches += m.Batches
	}
	return samples, batches
}

func batchMean(samples0, batches0, samples1, batches1 int64) float64 {
	if batches1 == batches0 {
		return 0
	}
	return float64(samples1-samples0) / float64(batches1-batches0)
}

// firstSlotOf returns the first slot in t's schedule that predicts on m:
// the request every cold boot is timed to answer.
func firstSlotOf(t *traffic, m *model) (*slot, error) {
	for i := range t.seq {
		if _, s := t.slotOf(i); s.model == m && s.kind != kindPlan {
			return s, nil
		}
	}
	return nil, fmt.Errorf("traffic has no %s predict", m.name)
}

// bootServe cold-starts a serving process serveBoots times, from artifact
// files to the first 200, and keeps the last one running. set-up time
// is the median boot.
func (e *env) bootServe(c *client, t *traffic) (*stack, error) {
	first, err := firstSlotOf(t, e.h2)
	if err != nil {
		return nil, err
	}
	var took, reads, regs []float64
	var keep *backend
	for i := 0; i < serveBoots; i++ {
		t0 := time.Now()
		b, stages, err := bootBackend([]*model{e.h2, e.euro}, e.tr)
		if err != nil {
			return nil, err
		}
		_, err = c.expectOK(b.http.url(), first)
		took = append(took, time.Since(t0).Seconds())
		reads, regs = append(reads, ms(stages.read)), append(regs, ms(stages.register))
		if err != nil || i < serveBoots-1 {
			if cerr := b.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, err
		}
		keep = b
	}
	e.set("setup_s", "s", median(took))
	e.set("serve.boot_read_ms", "ms", median(reads))
	e.set("serve.register_ms", "ms", median(regs))
	return &stack{url: keep.http.url(), backends: []*backend{keep}}, nil
}

// bootFleet starts two backends and a registry pinning both artifacts,
// then boots a gateway over them fleetBoots times, timing the registry load
// through WaitReady and the first 200, and keeps the last.
func (e *env) bootFleet(c *client, t *traffic) (*stack, error) {
	first, err := firstSlotOf(t, e.h2)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	reg := &gateway.Registry{}
	for i := 0; i < 2; i++ {
		b, _, err := bootBackend([]*model{e.h2, e.euro}, e.tr)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.backends = append(st.backends, b)
		reg.Backends = append(reg.Backends, gateway.Backend{Name: fmt.Sprintf("b%d", i), Addr: b.http.addr})
	}
	for _, m := range []*model{e.h2, e.euro} {
		reg.Artifacts = append(reg.Artifacts, gateway.ArtifactRef{Model: m.name, Path: filepath.Base(m.path), Checksum: m.art.Checksum})
	}
	regPath := filepath.Join(e.dir, "fleet.reg")
	if err := gateway.WriteRegistryFile(regPath, reg); err != nil {
		return nil, errors.Join(err, st.close())
	}
	// A plan answered by the gateway must be byte-identical to the
	// backend's own answer.
	for _, s := range t.slots {
		if s.kind == kindPlan {
			if s.want, err = c.expectOK(st.backends[0].http.url(), s); err != nil {
				return nil, errors.Join(err, st.close())
			}
		}
	}
	var took, ready []float64
	for i := 0; i < fleetBoots; i++ {
		// The prober makes its first pass as the gateway starts, and a
		// registry loaded after that pass is routable only from the next
		// one, a ProbeInterval later. Which comes first is a race; letting
		// the first, empty pass finish settles it, so every boot waits for
		// a real probe pass, as a gateway that reloads its registry does.
		g := gateway.New(gateway.Config{Seed: uint64(e.opts.Seed)})
		time.Sleep(10 * time.Millisecond)
		t0 := time.Now()
		err := g.LoadRegistryFile(regPath)
		if err == nil {
			err = g.WaitReady(e.h2.name, 10*time.Second)
		}
		ready = append(ready, ms(time.Since(t0)))
		var hs *httpServer
		if err == nil {
			hs, err = listen(e.tr.wrap("gateway.handler", g.Handler()))
		}
		if err == nil {
			_, err = c.expectOK(hs.url(), first)
			took = append(took, time.Since(t0).Seconds())
		}
		if err != nil || i < fleetBoots-1 {
			if hs != nil {
				err = errors.Join(err, hs.close())
			}
			g.Close()
		}
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		st.gw, st.gwHTTP, st.url = g, hs, hs.url()
	}
	e.set("setup_s", "s", median(took))
	e.set("gateway.ready_ms", "ms", median(ready))
	return st, nil
}

// runOnline is the interactive and fleet workload: an open loop on a
// fixed schedule for four fifths of each phase, then a closed loop on
// conns connections for the rest.
func runOnline(e *env, fleet bool) error {
	phase := e.phaseDur()
	openDur, closedDur := phase*4/5, phase/5
	nOpen := int(openDur / interval)
	// Bodies repeat only if a closed loop outruns 1500 req/s.
	n := warmupRequests + len(e.phases())*(nOpen+int(closedDur.Seconds()*1500))
	t, err := onlineTraffic(e.opts.Seed, n, e.h2, e.euro, fleet)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	boot := e.bootServe
	if fleet {
		boot = e.bootFleet
	}
	st, err := boot(c, t)
	if err != nil {
		return err
	}
	return e.drive(st, c, t, func(d *loadgen, book bool) (float64, int) {
		open := d.openLoop(nOpen, interval)
		closed, elapsed := d.closedLoop(closedDur, 0)
		p50 := latencyMS(open, openDur, 50)
		if book {
			e.set("latency_p50_ms", "ms", p50)
			e.set("latency_p99_ms", "ms", latencyMS(open, openDur, 99))
			e.set("capacity_rps", "req/s", requestRate(closed, elapsed))
			e.set("samples_per_s", "samples/s", sampleRate(t, closed, elapsed))
			e.set("open_loop.requests", "count", float64(len(open)))
			e.set("open_loop.latency_p99_ms_all", "ms", percentile(latenciesMS(open), 99))
			e.set("closed_loop.requests", "count", float64(len(closed)))
			e.set("loadgen.late_ms_p50", "ms", percentile(lateMS(open), 50))
			e.set("loadgen.late_ms_max", "ms", percentile(lateMS(open), 100))
			cp99 := latencyMS(closed, elapsed, 99)
			e.set("closed_loop.latency_p99_ms", "ms", cp99)
			e.check("closed_loop_p99_within_limit", cp99 <= ms(latencyLimit),
				fmt.Sprintf("closed-loop p99 %.3g ms, limit %v", cp99, latencyLimit))
		}
		return p50, okSamples(t, open) + okSamples(t, closed)
	})
}

// runBulkBlob is the bulk-blob workload: a closed loop of 256-sample SZ
// blocks on conns connections.
func runBulkBlob(e *env) error {
	t, err := blobTraffic(e.opts.Seed, blobBlocks, e.h2)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	st, err := e.bootServe(c, t)
	if err != nil {
		return err
	}
	return e.drive(st, c, t, func(d *loadgen, book bool) (float64, int) {
		recs, elapsed := d.closedLoop(e.phaseDur(), 0)
		p50 := latencyMS(recs, elapsed, 50)
		if book {
			e.set("latency_p50_ms", "ms", p50)
			e.set("latency_p99_ms", "ms", latencyMS(recs, elapsed, 99))
			e.set("capacity_rps", "req/s", requestRate(recs, elapsed))
			e.set("samples_per_s", "samples/s", sampleRate(t, recs, elapsed))
			e.set("closed_loop.requests", "count", float64(len(recs)))
		}
		return p50, okSamples(t, recs)
	})
}

// drive warms st up, runs phase once per measured phase, books the
// serving layers' numbers, closes st and checks every response. phase
// sends one phase's load, books the end-to-end metrics when book is set
// (the untraced phase), and returns the phase's p50 latency and the
// samples it completed.
func (e *env) drive(st *stack, c *client, t *traffic, phase func(d *loadgen, book bool) (float64, int)) error {
	d := &loadgen{c: c, url: st.url, t: t, tr: e.tr}
	d.closedLoop(time.Minute, warmupRequests)
	err := func() error {
		var untracedP50 float64
		for _, traced := range e.phases() {
			s0, b0 := st.served()
			u0, err := readUsage()
			if err != nil {
				return err
			}
			e.tr.setOn(traced)
			p50, samples := phase(d, !traced)
			e.tr.setOn(false)
			u1, err := readUsage()
			if err != nil {
				return err
			}
			s1, b1 := st.served()
			if traced {
				e.set("trace.overhead", "ratio", p50/untracedP50)
				if err := e.traceServe(t, batchMean(s0, b0, s1, b1)); err != nil {
					return err
				}
				continue
			}
			untracedP50 = p50
			e.set("serve.batch_mean", "samples", batchMean(s0, b0, s1, b1))
			e.setRuntime(u0, u1, samples)
		}
		e.serveCounters(st)
		return nil
	}()
	if err := errors.Join(err, st.close()); err != nil {
		return err
	}
	e.checkRecords(t, d.recs)
	return nil
}

// lateMS returns how late the generator sent each request, in ms.
func lateMS(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.start - r.due)
	}
	return out
}

// serveCounters books the serving layers' own counters over the run.
func (e *env) serveCounters(st *stack) {
	var rejected int64
	for _, b := range st.backends {
		rejected += b.srv.Metrics().Rejected
	}
	e.set("serve.rejected", "count", float64(rejected))
	if st.gw == nil {
		return
	}
	m := st.gw.Metrics()
	e.set("gateway.retries", "count", float64(m.Retries))
	if m.CacheHits+m.CacheMisses > 0 {
		e.set("gateway.cache_hit_ratio", "ratio", float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses))
	}
	var most, total int64
	for _, b := range m.Backends {
		most = max(most, b.Requests)
		total += b.Requests
	}
	if total > 0 {
		e.set("gateway.imbalance", "ratio", float64(most)*float64(len(m.Backends))/float64(total))
	}
}

// traceServe turns the traced phase's spans into layer numbers. A serve
// handler span covers decoding the body, waiting in the admission queue
// and for the batch to flush, the batch's forward pass, and encoding the
// response; the work part is replayed here for each kind of request at
// the phase's mean batch, and the rest of the span is wait.
func (e *env) traceServe(t *traffic, batch float64) error {
	e.tr.link()
	handler := e.tr.durMS("serve.handler")
	e.set("serve.handler_ms_p50", "ms", percentile(handler, 50))
	e.set("serve.handler_ms_p99", "ms", percentile(handler, 99))
	e.set("client.transport_ms_p50", "ms", median(e.tr.selfMS("client")))
	if spans := e.tr.selfMS("gateway.handler"); len(spans) > 0 {
		e.set("gateway.hop_ms_p50", "ms", median(spans))
	}
	b := max(int(batch+0.5), 1)
	byKey := map[uint32]*slot{}
	for _, s := range t.slots {
		byKey[s.key] = s
	}
	// Work is replayed once per model and kind of request.
	type workKey struct {
		m *model
		k kind
	}
	replayed := map[workKey]time.Duration{}
	var waits, shares []float64
	var mainEncode float64
	for _, sp := range e.tr.spans {
		s := byKey[sp.Key]
		if sp.Name != "serve.handler" || s == nil || s.kind == kindPlan {
			continue
		}
		work, ok := replayed[workKey{s.model, s.kind}]
		if !ok {
			total, enc, err := handlerWork(s, b)
			if err != nil {
				return err
			}
			work = total
			replayed[workKey{s.model, s.kind}] = work
			if s.model == e.h2 {
				mainEncode = us(enc) / float64(s.samples())
			}
		}
		wait := sp.dur() - work
		waits = append(waits, ms(wait))
		shares = append(shares, float64(wait)/float64(sp.dur()))
	}
	e.set("serve.wait_ms_p50", "ms", median(waits))
	e.set("path.wait_share", "ratio", median(shares))
	e.set("serve.encode_us_per_sample", "us", mainEncode)
	return nil
}

// handlerWork replays what a serve handler computes for s when its
// samples run in batches of b: decoding the body, the forward passes,
// and encoding the response. It returns the total and the encode part.
func handlerWork(s *slot, b int) (total, encode time.Duration, err error) {
	rows, err := servedInputs(s)
	if err != nil {
		return 0, 0, err
	}
	var decodeErr error
	decode := perCall(func() {
		if s.kind == kindBlob {
			_, decodeErr = servedInputs(s)
			return
		}
		var req serve.PredictRequest
		decodeErr = json.Unmarshal(s.body, &req)
	})
	if decodeErr != nil {
		return 0, 0, decodeErr
	}
	eng := s.model.quant
	w := min(b, len(rows), refBatch)
	fwd := timeForward(eng, rows[:w]) * time.Duration((len(rows)+w-1)/w)
	resp := serve.PredictResponse{
		Model:   s.model.name,
		Samples: len(rows),
		Outputs: forward(eng, rows),
		Bound:   &serve.BoundInfo{Format: s.model.art.Format.String(), Norm: "linf"},
	}
	var encodeErr error
	encode = perCall(func() { _, encodeErr = json.Marshal(resp) })
	if encodeErr != nil {
		return 0, 0, encodeErr
	}
	return decode + fwd + encode, encode, nil
}
