package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kplist"
	"kplist/internal/partition"
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

// filterQuery renders f as a scatter leg carries it.
func filterQuery(f partition.Filter) string {
	return fmt.Sprintf("&%s=%d&%s=%d&%s=%s", partition.FilterSeedParam, f.Seed,
		partition.FilterPartsParam, f.T, partition.FilterOwnedParam, f.Owned)
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

// TestTruthStreamShardFilter checks that a filtered lex stream holds
// exactly the cliques the filter owns, in order, on a memo miss and on
// the hit that follows, and that the engine stream filters the same way.
func TestTruthStreamShardFilter(t *testing.T) {
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
	const parts, p = 3, 3
	rng := rand.New(rand.NewSource(4))
	owned := make([]bool, len(partition.Signatures(parts, p)))
	for r := range owned {
		owned[r] = rng.Intn(2) == 0
	}
	f := partition.NewFilter(77, parts, owned)
	m := f.Matcher(inst.G.N(), p)
	var kept []kplist.Clique
	all := inst.G.ListCliques(p)
	for _, c := range all {
		if m.Owns(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 || len(kept) == len(all) {
		t.Fatalf("degenerate filter: keeps %d of %d cliques", len(kept), len(all))
	}
	want := encodeLines(kept)
	for _, q := range []string{"&algo=truth&order=lex", "&algo=truth&order=lex", "&algo=congested-clique"} {
		resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=3"+q+filterQuery(f))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", q, resp.StatusCode, body)
		}
		if string(body) != want {
			t.Fatalf("%s: filtered stream has %d lines, want %d", q, strings.Count(string(body), "\n"), len(kept))
		}
	}
	// The unfiltered lex stream replaces the filtered memo entry.
	if _, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=3&algo=truth&order=lex"); string(body) != encodeLines(all) {
		t.Fatal("unfiltered lex stream after a filtered one is not the whole listing")
	}
}

// TestTruthStreamRejectsBadFilter: a filter the node cannot apply is a
// caller mistake.
func TestTruthStreamRejectsBadFilter(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, _ := registerWorkload(t, ts.URL, 40, 3)
	good := filterQuery(partition.NewFilter(1, 3, make([]bool, 15))) // C(3+4-1, 4) = 15
	if resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth&order=lex"+good); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid filter: status %d body %s", resp.StatusCode, body)
	}
	for _, q := range []string{
		"&algo=truth&order=lex&partseed=1&parts=3&owned=00",       // mask too short
		"&algo=truth&order=lex&partseed=1&parts=3&owned=000000",   // mask too long
		"&algo=truth&order=lex&partseed=1&parts=0&owned=00",       // T < 1
		"&algo=truth&order=lex&partseed=1&parts=-1&owned=00",      // T < 1
		"&algo=truth&order=lex&partseed=1&parts=3&owned=zzzz",     // not hex
		"&algo=truth&order=lex&partseed=1&parts=3&owned=0080",     // bit past the last rank
		"&algo=truth&order=lex&partseed=x&parts=3&owned=0000",     // bad seed
		"&algo=truth&order=lex&partseed=1&owned=0000",             // missing T
		"&algo=truth&order=lex&parts=3",                           // partial filter
		"&algo=truth" + good,                                      // visit-order stream
		"&algo=truth&order=lex&stream=0" + good,                   // document form
		"&algo=congested-clique&stream=0" + good,                  // engine document
		"&algo=truth&order=lex&partseed=1&parts=3&owned=0000&p=5", // mask for another p
	} {
		url := ts.URL + "/v1/graphs/" + id + "/cliques?p=4" + q
		if strings.HasSuffix(q, "&p=5") {
			url = ts.URL + "/v1/graphs/" + id + "/cliques?p=5" + strings.TrimSuffix(q, "&p=5")
		}
		if resp, body := get(t, url); resp.StatusCode != http.StatusBadRequest {
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
