package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/serve"
)

// conns is the number of client connections of every workload. The
// benchmark host has two CPUs, and the servers share the process with
// the load generator.
const conns = 2

// httpServer is one in-process HTTP server on a loopback listener.
type httpServer struct {
	hs   *http.Server
	addr string
	done chan error
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpServer) url() string { return "http://" + s.addr }

// close closes the server and its connections and waits for its accept
// loop to return. It is called only once no request is in flight.
func (s *httpServer) close() error {
	err := s.hs.Close()
	if served := <-s.done; !errors.Is(served, http.ErrServerClosed) && err == nil {
		err = served
	}
	return err
}

// backend is one serving process as errpropd runs it: a serve.Server
// with its models cold-started from artifact files, on its own
// listener.
type backend struct {
	srv  *serve.Server
	http *httpServer
}

// bootStages times the stages of one cold boot.
type bootStages struct {
	read, register time.Duration
}

func bootBackend(models []*model, tr *tracer) (*backend, bootStages, error) {
	var st bootStages
	t0 := time.Now()
	arts := make([]*artifact.Artifact, len(models))
	for i, m := range models {
		a, err := artifact.ReadFile(m.path)
		if err != nil {
			return nil, st, err
		}
		arts[i] = a
	}
	t1 := time.Now()
	srv := serve.New(serve.Config{})
	for i, m := range models {
		if err := srv.RegisterArtifact(m.name, arts[i]); err != nil {
			srv.Close()
			return nil, st, err
		}
	}
	st.read, st.register = t1.Sub(t0), time.Since(t1)
	hs, err := listen(tr.wrap("serve.handler", srv.Handler()))
	if err != nil {
		srv.Close()
		return nil, st, err
	}
	return &backend{srv: srv, http: hs}, st, nil
}

func (b *backend) close() error {
	err := b.http.close()
	b.srv.Close()
	return err
}

// client is the load generator's HTTP client, capped at conns
// connections per server.
type client struct {
	transport *http.Transport
	hc        *http.Client
}

func newClient() *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{transport: t, hc: &http.Client{Transport: t}}
}

func (c *client) close() { c.transport.CloseIdleConnections() }

func (c *client) do(url string, s *slot) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+s.path, bytes.NewReader(s.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", s.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// expectOK sends s and fails unless the answer is a 200.
func (c *client) expectOK(url string, s *slot) ([]byte, error) {
	status, body, err := c.do(url, s)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", s.path, status, body)
	}
	return body, nil
}

// record is one request as the load generator saw it. Times are
// offsets from the start of the request's phase; due is when the
// request was scheduled (its send time in a closed loop).
type record struct {
	slot            int
	status          int
	crc             uint32
	due, start, end time.Duration
}

func (r record) latency() time.Duration { return r.end - r.due }

// loadgen sends a traffic's requests to one URL and keeps every record
// for the correctness check at the end of the run.
type loadgen struct {
	c    *client
	url  string
	t    *traffic
	tr   *tracer
	next atomic.Int64 // index of the next request in t
	recs []record
}

// send issues request i. A negative due marks a closed-loop request,
// due when it is sent.
func (d *loadgen) send(i int, t0 time.Time, due time.Duration) record {
	k, s := d.t.slotOf(i)
	start := time.Now()
	status, body, err := d.c.do(d.url, s)
	end := time.Now()
	r := record{slot: k, start: start.Sub(t0), end: end.Sub(t0), due: due}
	if due < 0 {
		r.due = r.start
	}
	if err == nil {
		r.status, r.crc = status, crc(body)
		if status == http.StatusOK {
			s.first.CompareAndSwap(nil, &body)
		}
	}
	d.tr.add("client", start, end, s.key)
	return r
}

// openLoop sends n requests on a fixed interval over conns connections,
// whatever the server's pace: a request whose connection is still busy
// when it falls due waits, and that wait counts in its latency.
func (d *loadgen) openLoop(n int, interval time.Duration) []record {
	base := int(d.next.Load())
	var next atomic.Int64
	t0 := time.Now()
	recs := d.fanOut(func(out []record) []record {
		for {
			j := int(next.Add(1) - 1)
			if j >= n {
				return out
			}
			due := time.Duration(j) * interval
			if wait := due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			out = append(out, d.send(base+j, t0, due))
		}
	})
	d.next.Add(int64(n))
	return recs
}

// closedLoop sends back-to-back requests on each of conns connections
// until dur has passed or limit requests were sent (limit <= 0: no
// cap). It returns the records and the time until the last answer.
func (d *loadgen) closedLoop(dur time.Duration, limit int) ([]record, time.Duration) {
	var sent atomic.Int64
	t0 := time.Now()
	recs := d.fanOut(func(out []record) []record {
		for time.Since(t0) < dur && (limit <= 0 || sent.Add(1) <= int64(limit)) {
			out = append(out, d.send(int(d.next.Add(1)-1), t0, -1))
		}
		return out
	})
	return recs, time.Since(t0)
}

// fanOut runs loop once per connection and joins the records.
func (d *loadgen) fanOut(loop func([]record) []record) []record {
	parts := make([][]record, conns)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = loop(nil)
		}(c)
	}
	wg.Wait()
	var all []record
	for _, p := range parts {
		all = append(all, p...)
	}
	d.recs = append(d.recs, all...)
	return all
}

// latenciesMS returns each record's latency in ms; a request that did
// not get a 200 counts as infinitely late, missing every limit.
func latenciesMS(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency())
		if r.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// latencyMS is the p-th percentile latency of the requests due in a
// window, in the best tenth of the windows of span.
func latencyMS(recs []record, span time.Duration, p float64) float64 {
	at := make([]time.Duration, len(recs))
	for i, r := range recs {
		at[i] = r.due
	}
	return windowBest(at, latenciesMS(recs), span, pct(p))
}

// requestRate is the requests answered per second in the best tenth of
// the windows of span; sampleRate counts their predict samples.
func requestRate(recs []record, span time.Duration) float64 {
	return rate(recs, span, func(record) float64 { return 1 })
}

func sampleRate(t *traffic, recs []record, span time.Duration) float64 {
	return rate(recs, span, func(r record) float64 {
		if r.status != http.StatusOK {
			return 0
		}
		return float64(t.slots[r.slot].samples())
	})
}

func rate(recs []record, span time.Duration, amount func(record) float64) float64 {
	at := make([]time.Duration, len(recs))
	amounts := make([]float64, len(recs))
	for i, r := range recs {
		at[i], amounts[i] = r.end, amount(r)
	}
	return windowRate(at, amounts, span)
}

// okSamples counts the predict samples answered with a 200.
func okSamples(t *traffic, recs []record) int {
	n := 0
	for _, r := range recs {
		if r.status == http.StatusOK {
			n += t.slots[r.slot].samples()
		}
	}
	return n
}

// checkRecords verifies every response of the run. Each slot's first
// 200 is verified in full (verifyFirst); every other 200 for the slot
// must be byte-identical to it. A request fails if it got no 200, a
// wrong output or an output outside its certified bound.
func (e *env) checkRecords(t *traffic, recs []record) {
	verified := make([]error, len(t.slots))
	firstCRC := make([]uint32, len(t.slots))
	for k, s := range t.slots {
		first := s.first.Load()
		if first == nil {
			continue
		}
		firstCRC[k] = crc(*first)
		use, err := verifyFirst(s, *first)
		verified[k] = err
		e.boundUse = math.Max(e.boundUse, use)
	}
	var non200, wrong, unsound int64
	var details []string
	note := func(format string, args ...any) {
		if len(details) < 3 {
			details = append(details, fmt.Sprintf(format, args...))
		}
	}
	for _, r := range recs {
		err := verified[r.slot]
		switch {
		case r.status != http.StatusOK:
			non200++
			note("%s answered %d", t.slots[r.slot].path, r.status)
		case errors.Is(err, errUnsound):
			unsound++
			note("%v", err)
		case err != nil:
			wrong++
			note("%v", err)
		case r.crc != firstCRC[r.slot]:
			wrong++
			note("a response differs from an earlier response to the same body")
		}
	}
	e.attempted += int64(len(recs))
	e.countFailures(non200, wrong, unsound, details)
}
