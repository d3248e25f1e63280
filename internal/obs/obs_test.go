package obs

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriteText pins the exposition bytes: families sorted by name with
// one TYPE line each, label sets sorted by value, counters as integers,
// sampled values with %g, uptime with %.3f, and escaped label values.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("x_requests_total", "route", "status")
	reqs.With("GET /b", "200").Add(3)
	reqs.With("GET /a", "404").Inc()
	reqs.With("GET /a", "200").Inc()
	reqs.With("q\"\\\n", "500").Inc()
	r.Counter("x_plain_total").Add(1234567)
	r.GaugeFunc("x_big", func() float64 { return 1e6 })
	r.CounterFunc("x_sampled_total", func() float64 { return 0.25 })
	r.GaugeFunc("x_up", func() float64 { return 1 }, "member", "n2")
	r.GaugeFunc("x_up", func() float64 { return 0 }, "member", "n1")
	r.Uptime("x_uptime_seconds", time.Now().Add(-1500*time.Millisecond))
	r.Histogram("x_apply_seconds").Observe(2 * time.Millisecond)

	got := render(t, r)
	uptime := strings.LastIndex(got, "x_uptime_seconds ")
	if uptime < 0 || !regexp.MustCompile(`^x_uptime_seconds [0-9]+\.[0-9]{3}\n$`).MatchString(got[uptime:]) {
		t.Fatalf("uptime line missing or not %%.3f:\n%s", got)
	}
	got = got[:uptime] + "x_uptime_seconds 1.XXX\n"
	want := `# TYPE x_apply_seconds histogram
x_apply_seconds_bucket{le="0.0005"} 0
x_apply_seconds_bucket{le="0.001"} 0
x_apply_seconds_bucket{le="0.005"} 1
x_apply_seconds_bucket{le="0.01"} 1
x_apply_seconds_bucket{le="0.05"} 1
x_apply_seconds_bucket{le="0.1"} 1
x_apply_seconds_bucket{le="0.5"} 1
x_apply_seconds_bucket{le="1"} 1
x_apply_seconds_bucket{le="5"} 1
x_apply_seconds_bucket{le="+Inf"} 1
x_apply_seconds_sum 0.002
x_apply_seconds_count 1
# TYPE x_big gauge
x_big 1e+06
# TYPE x_plain_total counter
x_plain_total 1234567
# TYPE x_requests_total counter
x_requests_total{route="GET /a",status="200"} 1
x_requests_total{route="GET /a",status="404"} 1
x_requests_total{route="GET /b",status="200"} 3
x_requests_total{route="q\"\\\n",status="500"} 1
# TYPE x_sampled_total counter
x_sampled_total 0.25
# TYPE x_up gauge
x_up{member="n1"} 0
x_up{member="n2"} 1
# TYPE x_uptime_seconds gauge
x_uptime_seconds 1.XXX
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	// Every current label value is plain ASCII, where the escaping gives
	// the same bytes as %q.
	for _, v := range []string{"GET /v1/graphs/{id}/cliques", "n1", "node-2.b_c"} {
		if got, want := `"`+labelEscaper.Replace(v)+`"`, fmt.Sprintf("%q", v); got != want {
			t.Errorf("escape %s: %s, want %s", v, got, want)
		}
	}
}

// TestHistogramBuckets checks that a value equal to a bound lands in that
// le bucket, that buckets are cumulative, and that +Inf equals _count.
func TestHistogramBuckets(t *testing.T) {
	bounds := []time.Duration{500 * time.Microsecond, time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, time.Second, 5 * time.Second}
	if len(bounds) != len(latencyBounds) {
		t.Fatalf("test covers %d bounds, ladder has %d", len(bounds), len(latencyBounds))
	}
	for i, d := range bounds {
		var h Histogram
		h.Observe(d)
		for j := range h.buckets {
			want := int64(0)
			if j == i {
				want = 1
			}
			if got := h.buckets[j].Load(); got != want {
				t.Errorf("Observe(%v): bucket %s holds %d, want %d", d, fmt.Sprint(j), got, want)
			}
		}
	}

	r := NewRegistry()
	h := r.HistogramVec("h_seconds", "k").With("v")
	for _, d := range append(bounds, 0, 300*time.Microsecond, 7*time.Second, time.Minute) {
		h.Observe(d)
	}
	var prev, inf int64 = -1, -1
	count := int64(-2)
	for _, line := range strings.Split(render(t, r), "\n") {
		var n int64
		switch {
		case strings.HasPrefix(line, "h_seconds_bucket"):
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n)
			if n < prev {
				t.Errorf("bucket %q below the previous %d: not cumulative", line, prev)
			}
			prev = n
			if strings.Contains(line, `le="+Inf"`) {
				inf = n
			}
		case strings.HasPrefix(line, "h_seconds_count"):
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &count)
		}
	}
	if inf != 13 || count != inf {
		t.Errorf("+Inf bucket %d, _count %d, want both 13", inf, count)
	}
}

// TestConcurrentUse races Inc, Observe, With and scrapes; run with -race.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	reqs := r.CounterVec("r_total", "route", "status")
	lat := r.HistogramVec("l_seconds", "route")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			route := fmt.Sprintf("/r%d", g%3)
			for i := 0; i < 500; i++ {
				c.Inc()
				reqs.With(route, "200").Inc()
				lat.With(route).Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					render(t, r)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*500 {
		t.Errorf("counter %d, want %d", got, 8*500)
	}
	text := render(t, r)
	for _, want := range []string{`r_total{route="/r0",status="200"} 1500`, `l_seconds_count{route="/r1"} 1500`, `l_seconds_count{route="/r2"} 1000`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestRedeclare(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Error("declaring a counter twice should return the same series")
	}
	for name, f := range map[string]func(){
		"other type":   func() { r.Histogram("a_total") },
		"other labels": func() { r.CounterVec("a_total", "x") },
		"value count":  func() { r.CounterVec("b_total", "x", "y").With("1") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	if body := rec.Body.String(); body != "# TYPE a_total counter\na_total 1\n" {
		t.Errorf("body %q", body)
	}
}
