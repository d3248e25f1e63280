package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"kplist"
	"kplist/internal/server"
)

// newTestServer starts an httptest server over a small default config; the
// overrides mutate the config before New.
func newTestServer(t *testing.T, override func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{
		MaxGraphs:       8,
		PoolSize:        4,
		QueueLimit:      256,
		MaxInFlight:     8,
		DefaultDeadline: time.Minute,
	}
	if override != nil {
		override(&cfg)
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// registerWorkload registers a planted-clique workload graph and returns
// its ID and the generated instance for ground-truth comparison.
func registerWorkload(t *testing.T, base string, n int, seed int64) (string, *kplist.WorkloadInstance) {
	t.Helper()
	spec := kplist.DefaultWorkloadSpec(kplist.WorkloadPlantedClique, n, seed)
	spec.CliqueSize = 4
	inst, err := kplist.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, base+"/v1/graphs", map[string]any{
		"name":     fmt.Sprintf("planted-%d-%d", n, seed),
		"workload": spec,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d body %s", resp.StatusCode, body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.N != inst.G.N() || info.M != inst.G.M() {
		t.Fatalf("registered info %+v does not match generated graph n=%d m=%d",
			info, inst.G.N(), inst.G.M())
	}
	return info.ID, inst
}

// TestRegisterQueryStreamEvict is the end-to-end happy path: register a
// workload graph, query it (single and batch), stream its cliques as
// NDJSON byte-matching the sequential ground truth, then force an LRU
// eviction and check the evicted graph still answers identically.
func TestRegisterQueryStreamEvict(t *testing.T) {
	srv, ts := newTestServer(t, func(c *server.Config) { c.PoolSize = 1 })
	id, inst := registerWorkload(t, ts.URL, 120, 7)

	// Single query.
	resp, body := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query",
		map[string]any{"p": 4, "algo": "congested-clique"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, body)
	}
	var qr struct {
		Results []struct {
			Cliques int   `json:"cliques"`
			Rounds  int64 `json:"rounds"`
			Error   string
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	want := kplist.GroundTruth(inst.G, 4)
	if len(qr.Results) != 1 || qr.Results[0].Cliques != len(want) {
		t.Fatalf("query results %+v, want %d cliques", qr.Results, len(want))
	}
	if qr.Results[0].Rounds <= 0 {
		t.Errorf("query must carry a positive round bill, got %d", qr.Results[0].Rounds)
	}

	// Batch with a duplicate: both results agree; the session cache served
	// the duplicate (visible in /metrics as a session cache hit).
	resp, body = postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{
		"queries": []map[string]any{
			{"p": 4, "algo": "congested-clique"},
			{"p": 4, "algo": "congested-clique"},
			{"p": 3},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 3 || qr.Results[0].Cliques != qr.Results[1].Cliques {
		t.Fatalf("batch results inconsistent: %+v", qr.Results)
	}
	for i, r := range qr.Results {
		if r.Error != "" {
			t.Errorf("batch result %d failed: %s", i, r.Error)
		}
	}

	// Stream: NDJSON bytes must equal the ground truth serialized the same
	// way — the acceptance byte-match.
	resp, body = get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=congested-clique&stream=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type %q", ct)
	}
	var expect bytes.Buffer
	for _, c := range want {
		line, _ := json.Marshal(c)
		expect.Write(line)
		expect.WriteByte('\n')
	}
	if !bytes.Equal(body, expect.Bytes()) {
		t.Fatalf("stream bytes do not match ground truth:\ngot  %d bytes\nwant %d bytes", len(body), expect.Len())
	}
	if got := resp.Header.Get("X-Kplist-Clique-Count"); got != fmt.Sprint(len(want)) {
		t.Errorf("X-Kplist-Clique-Count = %s, want %d", got, len(want))
	}

	// Pool size is 1: registering and querying a second graph evicts the
	// first session. The evicted graph must then answer identically from a
	// fresh session.
	id2, _ := registerWorkload(t, ts.URL, 100, 9)
	if _, body := postJSON(t, ts.URL+"/v1/graphs/"+id2+"/query", map[string]any{"p": 4}); !json.Valid(body) {
		t.Fatalf("second graph query: %s", body)
	}
	if srv.Pool().Contains(id) {
		t.Fatal("first session should have been evicted from a size-1 pool")
	}
	resp, body = get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=congested-clique")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction stream: status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expect.Bytes()) {
		t.Fatal("evicted graph answered differently after re-opening")
	}
	if st := srv.Pool().Stats(); st.Evictions == 0 {
		t.Errorf("expected at least one eviction: %+v", st)
	}
}

// TestLRUEvictionCorrectness cycles graphs through a size-2 pool and
// checks every evicted graph re-opens with identical answers, and that
// eviction follows recency (the least recently queried graph leaves).
func TestLRUEvictionCorrectness(t *testing.T) {
	srv, ts := newTestServer(t, func(c *server.Config) { c.PoolSize = 2 })
	type gr struct {
		id    string
		inst  *kplist.WorkloadInstance
		first string
	}
	var graphs []gr
	for i := 0; i < 3; i++ {
		id, inst := registerWorkload(t, ts.URL, 80+10*i, int64(20+i))
		g := gr{id: id, inst: inst}
		resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first stream %s: status %d", id, resp.StatusCode)
		}
		g.first = string(body)
		graphs = append(graphs, g)
	}
	// Pool holds the two most recent; graph 0 was evicted.
	if srv.Pool().Contains(graphs[0].id) {
		t.Error("LRU violation: oldest graph still pooled")
	}
	for _, g := range graphs {
		resp, body := get(t, ts.URL+"/v1/graphs/"+g.id+"/cliques?p=4")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("re-stream %s: status %d", g.id, resp.StatusCode)
		}
		if string(body) != g.first {
			t.Errorf("graph %s answered differently after eviction cycle", g.id)
		}
	}
	st := srv.Pool().Stats()
	if st.Evictions == 0 || st.Open > 2 {
		t.Errorf("pool stats %+v: want evictions > 0 and open ≤ 2", st)
	}
}

// TestErrorMapping pins the typed-error → HTTP status contract.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, func(c *server.Config) { c.MaxGraphs = 1 })
	id, _ := registerWorkload(t, ts.URL, 60, 3)

	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown graph", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs/nope/query", map[string]any{"p": 4})
			return resp.StatusCode
		}, http.StatusNotFound},
		{"unknown engine", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4, "algo": "quantum"})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"invalid query domain", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 3, "algo": "congest"})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"unknown family", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
				"workload": map[string]any{"family": "no-such-family", "n": 10}})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"registry full", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"n": 3, "edges": [][2]int{{0, 1}}})
			return resp.StatusCode
		}, http.StatusConflict},
		{"bad upload endpoint", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"n": 2, "edges": [][2]int{{0, 5}}})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"missing p on stream", func() int {
			resp, _ := get(t, ts.URL+"/v1/graphs/"+id+"/cliques")
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"bad deadline", func() int {
			resp, _ := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&deadline_ms=zero")
			return resp.StatusCode
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	// Note: "bad upload endpoint" consumed nothing (registry full fires
	// first at MaxGraphs=1), so order matters: registry-full case above
	// already proved 409.
}

// TestResourceGuards pins the admission-time resource bounds: oversized
// workload specs are rejected before any generation work, oversized
// batches before any query work, and a huge deadline_ms clamps instead of
// overflowing into an instantly-expired context.
func TestResourceGuards(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, _ := registerWorkload(t, ts.URL, 60, 4)

	// Workload with too many vertices.
	resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"workload": map[string]any{"family": "grid", "n": 1 << 21}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge-n workload: %d %s, want 400", resp.StatusCode, body)
	}
	// Workload within the vertex bound whose expected edge count explodes
	// (dense stochastic block): rejected by the estimate, never generated.
	resp, body = postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"workload": map[string]any{"family": "stochastic-block", "n": 1 << 19, "pIn": 1.0, "pOut": 0.5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dense workload: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "edges") {
		t.Errorf("rejection should name the edge bound: %s", body)
	}

	// A batch longer than MaxBatchQueries (default 1024).
	big := make([]map[string]any, 1025)
	for i := range big {
		big[i] = map[string]any{"p": 4, "seed": i}
	}
	resp, body = postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"queries": big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d %s, want 400", resp.StatusCode, body)
	}

	// deadline_ms beyond the Duration range clamps to MaxDeadline and the
	// query succeeds.
	resp, body = postJSON(t, ts.URL+"/v1/graphs/"+id+"/query?deadline_ms=99999999999999999",
		map[string]any{"p": 4})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("huge deadline_ms: %d %s, want 200 (clamped)", resp.StatusCode, body)
	}
}

// TestUploadedGraphQuery registers an explicit edge list (K4 plus a tail)
// and checks the listing.
func TestUploadedGraphQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "k4tail", "n": 5,
		"edges": [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/graphs/"+info.ID+"/query",
		map[string]any{"p": 4, "includeCliques": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Results []struct {
			CliqueList []kplist.Clique `json:"cliqueList"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].CliqueList) != 1 ||
		fmt.Sprint(qr.Results[0].CliqueList[0]) != "[0 1 2 3]" {
		t.Fatalf("want the single K4 [0 1 2 3], got %+v", qr.Results)
	}
}

// TestDeleteInvalidatesPool removes a graph and checks both the 404 and
// that its pooled session left.
func TestDeleteInvalidatesPool(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	id, _ := registerWorkload(t, ts.URL, 60, 5)
	if resp, _ := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4}); resp.StatusCode != 200 {
		t.Fatalf("prime query failed: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if srv.Pool().Contains(id) {
		t.Error("session survived graph deletion")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("query after delete: %d, want 404", resp.StatusCode)
	}
}

// TestHealthzAndMetrics checks the observability surface: healthz JSON and
// the Prometheus exposition carrying the per-endpoint and pool series.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, _ := registerWorkload(t, ts.URL, 60, 1)
	postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4})
	postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4}) // cache hit

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["graphs"].(float64) != 1 {
		t.Errorf("healthz %v", hz)
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`kplistd_requests_total{route="POST /v1/graphs",status="201"} 1`,
		`kplistd_requests_total{route="POST /v1/graphs/{id}/query",status="200"} 2`,
		"kplistd_pool_open_sessions 1",
		"kplistd_session_cache_hits_total 1",
		"kplistd_request_duration_seconds_bucket",
		"kplistd_admission_shed_total 0",
		"kplistd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestStreamNonStreaming checks the stream=0 JSON document form.
func TestStreamNonStreaming(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, inst := registerWorkload(t, ts.URL, 80, 2)
	resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&stream=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream=0: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		Count   int             `json:"count"`
		Cliques []kplist.Clique `json:"cliques"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if want := len(kplist.GroundTruth(inst.G, 4)); doc.Count != want || len(doc.Cliques) != want {
		t.Errorf("count %d cliques %d, want %d", doc.Count, len(doc.Cliques), want)
	}
}

// TestEngineDocumentEmptyCliques: an engine query's document form on a
// graph with no Kp renders the listing as [], never null, for every
// engine.
func TestEngineDocumentEmptyCliques(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{
		"name": "c6", "n": 6,
		"edges": [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"p=4&algo=congest", "p=4&algo=fastk4", "p=3&algo=congested-clique", "p=3&algo=broadcast",
	} {
		resp, body := get(t, ts.URL+"/v1/graphs/"+info.ID+"/cliques?stream=0&"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", q, resp.StatusCode, body)
		}
		var doc struct {
			Rounds int64 `json:"rounds"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Rounds == 0 {
			t.Errorf("%s: no rounds billed, so no engine ran: %s", q, body)
		}
		if !bytes.Contains(body, []byte(`"cliques":[]`)) || !bytes.Contains(body, []byte(`"count":0`)) {
			t.Errorf("%s: document %s, want an empty \"cliques\":[] listing", q, body)
		}
	}
}

// TestTruthStreaming exercises the algo=truth path: the NDJSON stream
// must carry exactly the ground-truth clique set, be byte-identical
// across repeated requests (the kernel's enumeration order is
// deterministic), and the document form must match the memoized listing.
func TestTruthStreaming(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, inst := registerWorkload(t, ts.URL, 90, 11)
	want := kplist.GroundTruth(inst.G, 4)

	resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truth stream: status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("truth stream content-type %q", ct)
	}
	if src := resp.Header.Get("X-Kplist-Source"); src != "ground-truth" {
		t.Errorf("X-Kplist-Source = %q", src)
	}
	var got []kplist.Clique
	for _, ln := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if ln == "" {
			continue
		}
		var c kplist.Clique
		if err := json.Unmarshal([]byte(ln), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		got = append(got, c)
	}
	slices.SortFunc(got, slices.Compare)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("truth stream listed %d cliques, want %d", len(got), len(want))
	}

	// Determinism: a second request streams identical bytes.
	resp2, body2 := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth")
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatal("truth stream is not byte-deterministic across requests")
	}

	// Document form: count + cliques from the memoized ground truth.
	resp, body = get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=4&algo=truth&stream=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truth document: status %d body %s", resp.StatusCode, body)
	}
	var doc struct {
		Count   int             `json:"count"`
		Source  string          `json:"source"`
		Cliques []kplist.Clique `json:"cliques"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != len(want) || doc.Source != "ground-truth" || len(doc.Cliques) != len(want) {
		t.Fatalf("truth document %+v, want %d cliques", doc, len(want))
	}
	if got := resp.Header.Get("X-Kplist-Clique-Count"); got != fmt.Sprint(len(want)) {
		t.Errorf("X-Kplist-Clique-Count = %s, want %d", got, len(want))
	}

	// Domain validation still applies.
	if resp, _ := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?p=0&algo=truth"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("p=0 truth stream: status %d, want 400", resp.StatusCode)
	}
}
