package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the parent span ID from a caller to the handler it
// reaches: benchmark client → gateway or node, gateway leg → node.
const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

// span is one timed interval at a layer boundary. Kind is client,
// gateway, leg (one gateway→node request, timed by the gateway's
// transport) or node; Name is the op or member, Route the API route.
// Write is the part of a server span spent inside the ResponseWriter's
// Write and Flush, handing the body to the transport: they block while
// the socket buffer is full, so that time belongs to the transport.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Route  string `json:"route"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Write  int64  `json:"writeNs,omitempty"`
	Phase  string `json:"phase,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// serve is a server span's time outside its writes to the transport.
func (s span) serve() time.Duration { return time.Duration(s.End - s.Start - s.Write) }

// tracer keeps spans in memory while on; nothing is written until exit.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps h so each request records a span whose parent comes from
// the span header, and whose ID rides the request context so a traced
// transport below can parent its legs on it.
func (t *tracer) handler(kind, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.next.Add(1)
		tw := &timedWriter{ResponseWriter: w, t: t}
		start := t.now()
		h.ServeHTTP(tw, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, id)))
		t.add(span{ID: id, Parent: parent, Kind: kind, Name: name, Route: routeOf(r),
			Start: start, End: t.now(), Write: tw.ns})
	})
}

// timedWriter sums the time a handler spends in Write and Flush.
type timedWriter struct {
	http.ResponseWriter
	t  *tracer
	ns int64
}

func (w *timedWriter) Write(b []byte) (int, error) {
	t0 := w.t.now()
	n, err := w.ResponseWriter.Write(b)
	w.ns += w.t.now() - t0
	return n, err
}

func (w *timedWriter) Flush() {
	t0 := w.t.now()
	http.NewResponseController(w.ResponseWriter).Flush()
	w.ns += w.t.now() - t0
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// legTransport is the gateway's traced RoundTripper: it times each node
// request from send to the last body byte, parents it on the gateway span
// found in the request context, and tags the node request with its own
// span ID. Requests without a gateway span (health probes, repair sweeps)
// are recorded with no parent.
type legTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (lt *legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !lt.tr.on.Load() {
		return lt.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanCtxKey{}).(uint64)
	id := lt.tr.next.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	sp := span{ID: id, Parent: parent, Kind: "leg", Name: req.URL.Host, Route: routeOf(req), Start: lt.tr.now()}
	resp, err := lt.base.RoundTrip(req)
	if err != nil {
		sp.End = lt.tr.now()
		lt.tr.add(sp)
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, done: func() {
		sp.End = lt.tr.now()
		lt.tr.add(sp)
	}}
	return resp, nil
}

// legBody ends its leg span at EOF or Close, whichever comes first.
type legBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *legBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// routeOf labels a request by its last path segment ("cliques",
// "query", "replica", ...), with estimates and patches named as such.
func routeOf(r *http.Request) string {
	switch seg := path.Base(r.URL.Path); {
	case seg == "query" && r.URL.Query().Get("mode") == "estimate":
		return "estimate"
	case seg == "edges":
		return "patch"
	default:
		return seg
	}
}

// spanSet maps a span ID to its children, for self-time and transport
// analysis.
type spanSet map[uint64][]span

func indexSpans(spans []span) spanSet {
	s := spanSet{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			s[sp.Parent] = append(s[sp.Parent], sp)
		}
	}
	return s
}

// selfTime is a span's duration minus the part of it its children cover.
func (s spanSet) selfTime(sp span) time.Duration {
	kids := s[sp.ID]
	if len(kids) == 0 {
		return sp.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, sp.Start), min(k.End, sp.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	covered += curHi - curLo
	return sp.dur() - time.Duration(covered)
}

// firstChild returns the first child of sp; a client span has one, the
// server span of the gateway or node it reached.
func (s spanSet) firstChild(sp span) (span, bool) {
	if kids := s[sp.ID]; len(kids) > 0 {
		return kids[0], true
	}
	return span{}, false
}

// writeSpans writes the window's and the ladder's spans as JSON lines,
// each tagged with its phase.
func writeSpans(path string, window, ladder []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, spans := range [][]span{window, ladder} {
		for _, sp := range spans {
			sp.Phase = [2]string{"window", "ladder"}[i]
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
