package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"kplist"
	"kplist/internal/server"
)

// encodeLines is the reference NDJSON encoding of a listing.
func encodeLines(cs []kplist.Clique) string {
	var b []byte
	for _, c := range cs {
		b = c.AppendLine(b)
	}
	return string(b)
}

// TestTruthLexAfterPatch checks the memoized lex stream against a fresh
// encoding of the listing after a PATCH that leaves the K4s alone (the
// memo is re-keyed) and after one that adds a K4 (the memo is dropped).
func TestTruthLexAfterPatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const n = 12
	// Two disjoint K4s; vertices 8..11 isolated.
	var edges [][2]int32
	for _, base := range []int32{0, 4} {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	id := registerEdgeGraph(t, ts.URL, n, edges)
	lex := func() string {
		resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth&order=lex")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lex stream: status %d body %s", resp.StatusCode, body)
		}
		return string(body)
	}
	want := func() string {
		kes := make([]kplist.Edge, len(edges))
		for i, e := range edges {
			kes[i] = kplist.Edge{U: e[0], V: e[1]}
		}
		g, err := kplist.NewGraph(n, kes)
		if err != nil {
			t.Fatal(err)
		}
		return encodeLines(g.ListCliques(4))
	}
	if got := lex(); got != want() {
		t.Fatalf("lex stream %q, want %q", got, want())
	}

	for _, batch := range [][][2]int32{
		{{8, 9}}, // no K4 through it
		{{8, 10}, {8, 11}, {9, 10}, {9, 11}, {10, 11}}, // completes K4 {8..11}
	} {
		var muts []map[string]any
		for _, e := range batch {
			muts = append(muts, mut("add", int(e[0]), int(e[1])))
			edges = append(edges, e)
		}
		if resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(muts...)); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
		}
		if got, w := lex(), want(); got != w {
			t.Fatalf("after adding %v: lex stream %q, want %q", batch, got, w)
		}
	}
	if strings.Count(lex(), "\n") != 3 {
		t.Fatal("the second batch did not add a K4")
	}
}

// TestTruthStreamShardRange checks that a scatter leg's root range
// [lo, hi) streams exactly the cliques whose smallest vertex lies in it,
// in order, on a memo miss and on the hit that follows, that the engine
// stream slices the same way, and that ranges which cover [0, n)
// concatenate to the whole listing.
func TestTruthStreamShardRange(t *testing.T) {
	_, ts := newTestServer(t, nil)
	spec := kplist.WorkloadSpec{Family: kplist.WorkloadStochasticBlock, N: 100, Seed: 5}
	inst, err := kplist.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"workload": spec})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d body %s", resp.StatusCode, body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	id := info.ID
	const p = 3
	all := inst.G.ListCliques(p)
	rooted := func(lo, hi int) string {
		var kept []kplist.Clique
		for _, c := range all {
			if int(c[0]) >= lo && int(c[0]) < hi {
				kept = append(kept, c)
			}
		}
		return encodeLines(kept)
	}
	if want := rooted(30, 60); want == "" || want == encodeLines(all) {
		t.Fatalf("degenerate range: keeps %d of %d cliques", strings.Count(want, "\n"), len(all))
	}
	for _, q := range []string{"&algo=truth&order=lex", "&algo=truth&order=lex", "&algo=congested-clique"} {
		var cat string
		for _, r := range [][2]int{{0, 30}, {30, 30}, {30, 60}, {60, 100}} {
			url := fmt.Sprintf("%s/v1/graphs/%s/cliques?p=%d%s&lo=%d&hi=%d", ts.URL, id, p, q, r[0], r[1])
			resp, body := get(t, url)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s range %v: status %d body %s", q, r, resp.StatusCode, body)
			}
			if string(body) != rooted(r[0], r[1]) {
				t.Fatalf("%s range %v: %d lines, want %d", q, r, strings.Count(string(body), "\n"),
					strings.Count(rooted(r[0], r[1]), "\n"))
			}
			cat += string(body)
		}
		if cat != encodeLines(all) {
			t.Fatalf("%s: the ranges do not concatenate to the whole listing", q)
		}
	}
}

// TestTruthStreamRejectsBadFilter: a root range the node cannot apply is
// a caller mistake.
func TestTruthStreamRejectsBadFilter(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, _ := registerWorkload(t, ts.URL, 40, 3)
	if resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth&order=lex&lo=0&hi=40"); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid range: status %d body %s", resp.StatusCode, body)
	}
	for _, q := range []string{
		"&algo=truth&order=lex&lo=1",                // hi missing
		"&algo=truth&order=lex&hi=5",                // lo missing
		"&algo=truth&order=lex&lo=x&hi=5",           // not an integer
		"&algo=truth&order=lex&lo=1&hi=2.5",         // not an integer
		"&algo=truth&order=lex&lo=-1&hi=5",          // negative
		"&algo=truth&order=lex&lo=6&hi=5",           // lo > hi
		"&algo=truth&order=lex&lo=0&hi=41",          // hi > n
		"&algo=truth&lo=1&hi=5",                     // visit-order stream
		"&algo=truth&order=lex&stream=0&lo=1&hi=5",  // document form
		"&algo=congested-clique&stream=0&lo=1&hi=5", // engine document
	} {
		if resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", q, resp.StatusCode, body)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body: it measures the
// handler, not a buffer growing with the response.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discardWriter) Flush()                      {}

// streamFixture registers a planted-clique graph of n vertices straight
// through the handler and warms the memo of the truth stream the query
// names; serve then answers one memo-hit stream into a discard writer.
func streamFixture(tb testing.TB, h http.Handler, n int, query string) (serve func() *discardWriter) {
	tb.Helper()
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"workload":{"family":"planted-clique","n":%d,"seed":42,"cliqueSize":6}}`, n)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("register: status %d body %s", rec.Code, rec.Body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/"+info.ID+"/cliques?"+query, nil)
	dw := &discardWriter{h: make(http.Header)}
	serve = func() *discardWriter {
		dw.status, dw.n = 0, 0
		clear(dw.h)
		h.ServeHTTP(dw, req)
		return dw
	}
	if dw := serve(); dw.status != http.StatusOK || dw.n == 0 {
		tb.Fatalf("%s stream: status %d, %d bytes", query, dw.status, dw.n)
	}
	return serve
}

const (
	lexQuery   = "p=4&algo=truth&order=lex"
	visitQuery = "p=4&algo=truth"
)

// assertStreamAllocsFlat checks that a memo-hit stream's allocations do
// not grow with the clique count: serving the memoized listing writes the
// stored bytes.
func assertStreamAllocsFlat(t *testing.T, query string) {
	t.Helper()
	h := server.New(server.Config{}).Handler()
	small, large := streamFixture(t, h, 200, query), streamFixture(t, h, 2000, query)
	if s, l := small().n, large().n; l < 10*s {
		t.Fatalf("fixture: large stream %d bytes is not 10x the small one's %d", l, s)
	}
	a, b := testing.AllocsPerRun(50, func() { small() }), testing.AllocsPerRun(50, func() { large() })
	if b > a {
		t.Fatalf("memo-hit %s stream allocs grew with the listing: %.1f objects for the small graph, %.1f for the 10x one", query, a, b)
	}
}

// TestLexStreamAllocsFlat is the memo-hit lex stream's alloc canary,
// pinned by the CI bench-smoke job.
func TestLexStreamAllocsFlat(t *testing.T) { assertStreamAllocsFlat(t, lexQuery) }

// TestVisitStreamAllocsFlat is the same canary for the default
// visit-order stream.
func TestVisitStreamAllocsFlat(t *testing.T) { assertStreamAllocsFlat(t, visitQuery) }

// benchmarkStream times one memo-hit stream through the handler into a
// discard writer.
func benchmarkStream(b *testing.B, query string) {
	serve := streamFixture(b, server.New(server.Config{}).Handler(), 2000, query)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = serve().n
	}
	b.SetBytes(int64(bytes))
}

// BenchmarkServerLexStream times one memo-hit order=lex stream.
func BenchmarkServerLexStream(b *testing.B) { benchmarkStream(b, lexQuery) }

// BenchmarkServerVisitStream times one memo-hit visit-order stream.
func BenchmarkServerVisitStream(b *testing.B) { benchmarkStream(b, visitQuery) }

// FuzzCliquesRange drives /cliques with arbitrary root-range parameters
// on a live handler: either bound missing, non-integer, negative,
// inverted or past n, with any clique size, algorithm, order and stream
// form. Every input gets a 2xx or a 4xx, never a 5xx or a panic; a 200
// truth or engine stream holds only cliques rooted in the range.
func FuzzCliquesRange(f *testing.F) {
	h := server.New(server.Config{}).Handler()
	const n = 40
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"workload":{"family":"planted-clique","n":%d,"seed":3,"cliqueSize":5}}`, n)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
	var info server.GraphInfo
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
		f.Fatalf("register: status %d body %s", rec.Code, rec.Body)
	}
	algos := []string{"truth", "", "congested-clique", "bogus"}
	for _, seed := range []struct {
		lo, hi           string
		withLo, withHi   bool
		p, algo          uint8
		document, lexOrd bool
	}{
		{"", "", false, false, 3, 0, false, true},    // no range
		{"0", "40", true, true, 3, 0, false, true},   // the whole range
		{"5", "", true, false, 3, 0, false, true},    // half-given
		{"", "5", false, true, 3, 1, false, false},   // half-given, engine
		{"x", "5", true, true, 3, 0, false, true},    // non-integer
		{"-1", "5", true, true, 3, 2, false, false},  // negative
		{"9", "3", true, true, 3, 0, false, true},    // lo > hi
		{"0", "41", true, true, 3, 1, false, false},  // hi > n
		{"2", "30", true, true, 3, 0, true, true},    // document form
		{"2", "30", true, true, 3, 0, false, false},  // visit order
		{"2", "30", true, true, 4, 2, true, false},   // engine document
		{"0", "0", true, true, 200, 0, false, true},  // huge p, empty range
		{"1e3", " 7", true, true, 0, 3, false, true}, // junk everywhere
	} {
		f.Add(seed.lo, seed.hi, seed.withLo, seed.withHi, seed.p, seed.algo, seed.document, seed.lexOrd)
	}
	f.Fuzz(func(t *testing.T, lo, hi string, withLo, withHi bool, p, algo uint8, document, lexOrd bool) {
		q := url.Values{"p": {fmt.Sprint(int(p%8) - 1)}, "algo": {algos[int(algo)%len(algos)]}}
		if withLo {
			q.Set("lo", lo)
		}
		if withHi {
			q.Set("hi", hi)
		}
		if document {
			q.Set("stream", "0")
		}
		if lexOrd {
			q.Set("order", "lex")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/"+info.ID+"/cliques?"+q.Encode(), nil))
		if rec.Code >= 500 || rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 {
			t.Fatalf("%s: status %d body %s", q.Encode(), rec.Code, rec.Body)
		}
		from, errLo := strconv.Atoi(lo)
		to, errHi := strconv.Atoi(hi)
		if rec.Code != http.StatusOK || document || !withLo || !withHi || errLo != nil || errHi != nil {
			return
		}
		for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
			var c []int
			if line != "" && (json.Unmarshal([]byte(line), &c) != nil || len(c) == 0 || c[0] < from || c[0] >= to) {
				t.Fatalf("%s: line %q is not a clique rooted in [%d, %d)", q.Encode(), line, from, to)
			}
		}
	})
}
