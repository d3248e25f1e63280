// Package obs is the one metrics implementation behind both daemons'
// /metrics: atomic counters, latency histograms on one shared bucket
// ladder, sampled gauge and counter funcs, and a Registry that renders
// them in the Prometheus text exposition format (version 0.0.4) using
// the standard library only.
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBounds are the histogram bucket upper bounds in seconds. Every
// histogram of both daemons uses them, so node and gateway latency
// overlay on one dashboard.
var latencyBounds = [...]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// metric is one series' value, rendered as exposition lines.
type metric interface {
	appendText(b []byte, name, labels string) []byte
}

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter struct{ n atomic.Int64 }

func (c *Counter) Inc()        { c.n.Add(1) }
func (c *Counter) Add(n int64) { c.n.Add(n) }
func (c *Counter) Load() int64 { return c.n.Load() }

func (c *Counter) appendText(b []byte, name, labels string) []byte {
	return fmt.Appendf(appendName(b, name, labels, ""), " %d\n", c.Load())
}

// Histogram counts durations into the latencyBounds buckets. Observe
// takes no lock, and _count is rendered as the +Inf bucket, so the two
// always agree in one scrape.
type Histogram struct {
	buckets [len(latencyBounds) + 1]atomic.Int64 // last is +Inf
	sum     atomic.Uint64                        // float64 bits, seconds
}

// Observe adds d to the first bucket whose bound is >= d.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	h.buckets[sort.SearchFloat64s(latencyBounds[:], sec)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sec)) {
			return
		}
	}
}

func (h *Histogram) appendText(b []byte, name, labels string) []byte {
	var cum int64
	for i := range h.buckets {
		le := "+Inf"
		if i < len(latencyBounds) {
			le = fmt.Sprintf("%g", latencyBounds[i])
		}
		cum += h.buckets[i].Load()
		b = fmt.Appendf(appendName(b, name+"_bucket", labels, `le="`+le+`"`), " %d\n", cum)
	}
	b = fmt.Appendf(appendName(b, name+"_sum", labels, ""), " %g\n", math.Float64frombits(h.sum.Load()))
	return fmt.Appendf(appendName(b, name+"_count", labels, ""), " %d\n", cum)
}

// sampled is a value read at scrape time and printed with format.
type sampled struct {
	f      func() float64
	format string
}

func (s sampled) appendText(b []byte, name, labels string) []byte {
	return fmt.Appendf(appendName(b, name, labels, ""), s.format, s.f())
}

// appendName appends name{labels,extra}, or the bare name when both are
// empty.
func appendName(b []byte, name, labels, extra string) []byte {
	b = append(b, name...)
	if labels == "" && extra == "" {
		return b
	}
	b = append(append(b, '{'), labels...)
	if labels != "" && extra != "" {
		b = append(b, ',')
	}
	return append(append(b, extra...), '}')
}

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// family is one metric name: its type, label names and series.
type family struct {
	name, typ string
	labels    []string
	series    sync.Map // label values joined by "\x00" → *series
}

type series struct {
	key    string // the sync.Map key; sorts label sets in value order
	labels string // rendered `a="x",b="y"`
	m      metric
}

// get returns the metric of the series with the given label values,
// storing the one newMetric builds if there is none yet.
func (f *family) get(values []string, newMetric func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes labels %q, got values %q", f.name, f.labels, values))
	}
	key := strings.Join(values, "\x00")
	if s, ok := f.series.Load(key); ok {
		return s.(*series).m
	}
	var sb strings.Builder
	for i, l := range f.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l + `="` + labelEscaper.Replace(values[i]) + `"`)
	}
	s, _ := f.series.LoadOrStore(key, &series{key: key, labels: sb.String(), m: newMetric()})
	return s.(*series).m
}

// Vec is a labelled family of counters or histograms.
type Vec[T Counter | Histogram] struct{ f *family }

// With returns the series with the given label values, in the order the
// family declared its label names; the series renders from its first
// use on.
func (v *Vec[T]) With(values ...string) *T {
	return any(v.f.get(values, func() metric { return any(new(T)).(metric) })).(*T)
}

// Registry holds the families one daemon renders on /metrics. Declaring
// a name twice returns the same family; declaring it with another type
// or other label names panics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

func (r *Registry) family(name, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, labels: labels}
		r.fams[name] = f
	} else if f.typ != typ || !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: %s redeclared as %s%q, was %s%q", name, typ, labels, f.typ, f.labels))
	}
	return f
}

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Histogram declares an unlabelled latency histogram.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramVec(name).With() }

// CounterVec declares a counter family with the given label names.
func (r *Registry) CounterVec(name string, labels ...string) *Vec[Counter] {
	return &Vec[Counter]{r.family(name, "counter", labels)}
}

// HistogramVec declares a latency histogram family with the given label
// names.
func (r *Registry) HistogramVec(name string, labels ...string) *Vec[Histogram] {
	return &Vec[Histogram]{r.family(name, "histogram", labels)}
}

// GaugeFunc declares a gauge sampled from f at every scrape. labels are
// name, value pairs.
func (r *Registry) GaugeFunc(name string, f func() float64, labels ...string) {
	r.sample(name, "gauge", " %g\n", f, labels)
}

// CounterFunc declares a counter sampled from f at every scrape, for
// monotonic counts another component keeps. labels are name, value
// pairs.
func (r *Registry) CounterFunc(name string, f func() float64, labels ...string) {
	r.sample(name, "counter", " %g\n", f, labels)
}

// Uptime declares a gauge of the seconds since start.
func (r *Registry) Uptime(name string, start time.Time) {
	r.sample(name, "gauge", " %.3f\n", func() float64 { return time.Since(start).Seconds() }, nil)
}

func (r *Registry) sample(name, typ, format string, f func() float64, pairs []string) {
	var names, values []string
	for i := 0; i+1 < len(pairs); i += 2 {
		names, values = append(names, pairs[i]), append(values, pairs[i+1])
	}
	r.family(name, typ, names).get(values, func() metric { return sampled{f, format} })
}

// WriteText writes the exposition: families sorted by name, each with
// exactly one TYPE line before its samples, and each family's series
// sorted by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := slices.SortedFunc(maps.Values(r.fams), func(a, b *family) int { return strings.Compare(a.name, b.name) })
	r.mu.Unlock()
	var b []byte
	for _, f := range fams {
		b = fmt.Appendf(b, "# TYPE %s %s\n", f.name, f.typ)
		var ss []*series
		for _, s := range f.series.Range {
			ss = append(ss, s.(*series))
		}
		slices.SortFunc(ss, func(x, y *series) int { return strings.Compare(x.key, y.key) })
		for _, s := range ss {
			b = s.m.appendText(b, f.name, s.labels)
		}
	}
	_, err := w.Write(b)
	return err
}

// ServeHTTP serves the exposition, so a Registry mounts as /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w) // a failed write means the scraper went away
}
