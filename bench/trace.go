package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// its key, the CRC32C of the request body: the gateway forwards bodies
// verbatim, so the client, gateway and backend spans of a request match
// without any header plumbing. link assigns parents after the run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    uint32 `json:"key"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while it is on; a nil tracer records
// nothing.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) add(name string, start, end time.Time, key uint32) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID:    int64(len(t.spans) + 1),
		Name:  name,
		Start: start.Sub(t.base).Nanoseconds(),
		End:   end.Sub(t.base).Nanoseconds(),
		Key:   key,
	})
}

// wrap puts a span named name around every request h serves while the
// tracer is on. It reads the body first to key the span, so the span
// covers the handler's work, not the body's transfer.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, start, time.Now(), crc(body))
	})
}

// link makes each span's parent the shortest span of another name with
// the same key that encloses it. Bodies may repeat within a run, but
// two requests with one body are never in flight at once, so enclosure
// picks the right request.
func (t *tracer) link() {
	groups := map[uint32][]int{}
	for i, s := range t.spans {
		groups[s.Key] = append(groups[s.Key], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		best := -1
		for _, j := range groups[s.Key] {
			p := t.spans[j]
			if p.Name == s.Name || p.Start > s.Start || p.End < s.End ||
				p.dur() < s.dur() || (p.dur() == s.dur() && p.ID > s.ID) {
				continue
			}
			if best < 0 || p.dur() < t.spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = t.spans[best].ID
		}
	}
}

// selfMS returns, for every span named name that has children, its
// duration minus the part of it its children cover, in ms: the time
// spent in that layer itself.
func (t *tracer) selfMS(name string) []float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		kids := children[s.ID]
		if s.Name != name || len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, ms(s.dur()-time.Duration(covered)))
	}
	return out
}

// durMS returns the durations of the spans named name, in ms.
func (t *tracer) durMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
