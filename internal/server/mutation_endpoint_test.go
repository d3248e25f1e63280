package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kplist"
	"kplist/internal/server"
)

func patchJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

func mutBody(muts ...map[string]any) map[string]any {
	return map[string]any{"mutations": muts}
}

func mut(op string, u, v int) map[string]any {
	return map[string]any{"op": op, "u": u, "v": v}
}

// queryCliqueCount runs one p-query and returns the reported clique count.
func queryCliqueCount(t *testing.T, base, id string, p int) int {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/graphs/"+id+"/query",
		map[string]any{"p": p, "algo": "congested-clique"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %s", resp.StatusCode, body)
	}
	var qr struct {
		Results []struct {
			Cliques int    `json:"cliques"`
			Error   string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].Error != "" {
		t.Fatalf("query results %+v", qr)
	}
	return qr.Results[0].Cliques
}

// registerEdgeGraph uploads an explicit edge list and returns its ID.
func registerEdgeGraph(t *testing.T, base string, n int, edges [][2]int32) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/graphs", map[string]any{"n": n, "edges": edges})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d body %s", resp.StatusCode, body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// TestPatchEdgesEndToEnd mutates an uploaded graph through the PATCH
// endpoint and checks the listing, the registry info and the metrics all
// track the mutation.
func TestPatchEdgesEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Two disjoint triangles over 10 vertices.
	id := registerEdgeGraph(t, ts.URL, 10, [][2]int32{
		{0, 1}, {0, 2}, {1, 2},
		{3, 4}, {3, 5}, {4, 5},
	})
	if got := queryCliqueCount(t, ts.URL, id, 3); got != 2 {
		t.Fatalf("seed triangles: %d", got)
	}

	// Close a third triangle; one redundant op rides along.
	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(
		mut("add", 6, 7), mut("add", 7, 8), mut("add", 6, 8), mut("add", 0, 1),
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
	}
	var pr struct {
		Mutations          int  `json:"mutations"`
		AddedEdges         int  `json:"addedEdges"`
		RemovedEdges       int  `json:"removedEdges"`
		Rebuilt            bool `json:"rebuilt"`
		InvalidatedResults int  `json:"invalidatedResults"`
		M                  int  `json:"m"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mutations != 4 || pr.AddedEdges != 3 || pr.RemovedEdges != 0 || pr.Rebuilt || pr.M != 9 {
		t.Fatalf("patch response %+v", pr)
	}
	if pr.InvalidatedResults != 1 {
		t.Fatalf("cached p=3 result not invalidated: %+v", pr)
	}
	if got := queryCliqueCount(t, ts.URL, id, 3); got != 3 {
		t.Fatalf("triangles after patch: %d", got)
	}

	// Deleting one edge of a triangle removes it again.
	resp, body = patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(mut("remove", 6, 7)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
	}
	if got := queryCliqueCount(t, ts.URL, id, 3); got != 2 {
		t.Fatalf("triangles after delete: %d", got)
	}

	// Registry info reflects the mutated edge count.
	resp, body = get(t, ts.URL+"/v1/graphs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.M != 8 {
		t.Fatalf("registry m=%d after mutations, want 8", info.M)
	}

	// Metrics: mutation counters and the apply-latency histogram exist.
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"kplistd_mutations_total 5",
		`kplistd_mutation_batches_total{mode="incremental"} 2`,
		`kplistd_mutation_batches_total{mode="rebuild"} 0`,
		"kplistd_mutation_apply_seconds_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestPatchEdgesValidation exercises the 4xx paths.
func TestPatchEdgesValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *server.Config) { c.MaxMutationBatch = 4 })
	id := registerEdgeGraph(t, ts.URL, 4, [][2]int32{{0, 1}})

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty batch", mutBody(), http.StatusBadRequest},
		{"unknown op", mutBody(mut("toggle", 0, 1)), http.StatusBadRequest},
		{"out of range", mutBody(mut("add", 0, 99)), http.StatusBadRequest},
		{"self loop", mutBody(mut("add", 2, 2)), http.StatusBadRequest},
		{"oversized batch", mutBody(
			mut("add", 0, 1), mut("add", 0, 2), mut("add", 0, 3),
			mut("add", 1, 2), mut("add", 1, 3),
		), http.StatusBadRequest},
		{"bad json", "not an object", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d body %s", tc.name, resp.StatusCode, body)
		}
	}
	// Unknown graph is 404.
	resp, _ := patchJSON(t, ts.URL+"/v1/graphs/nope/edges", mutBody(mut("add", 0, 1)))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	// Rejected batches left the graph untouched.
	if got := queryCliqueCount(t, ts.URL, id, 3); got != 0 {
		t.Fatalf("graph mutated by rejected batches: %d triangles", got)
	}
}

// TestPatchEdgesSurvivesEviction checks the mutation's durability story:
// after PATCH, evicting the graph's pooled session (by touching other
// graphs through a size-1 pool) must not roll the mutation back, because
// the registry holds the mutated snapshot.
func TestPatchEdgesSurvivesEviction(t *testing.T) {
	srv, ts := newTestServer(t, func(c *server.Config) { c.PoolSize = 1 })
	id := registerEdgeGraph(t, ts.URL, 6, [][2]int32{{0, 1}, {1, 2}})
	other := registerEdgeGraph(t, ts.URL, 4, [][2]int32{{0, 1}})

	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(mut("add", 0, 2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
	}
	// Evict id's session.
	if got := queryCliqueCount(t, ts.URL, other, 3); got != 0 {
		t.Fatalf("other graph triangles: %d", got)
	}
	if srv.Pool().Contains(id) {
		t.Fatal("pool still holds the mutated graph's session")
	}
	// A fresh session must serve the mutated graph.
	if got := queryCliqueCount(t, ts.URL, id, 3); got != 1 {
		t.Fatalf("mutation rolled back after eviction: %d triangles", got)
	}
}

// TestPatchEdgesRebuildMode drives a batch past the incremental engine's
// density threshold and checks the response and metrics record the
// rebuild fallback.
func TestPatchEdgesRebuildMode(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// A 40-vertex path: 39 edges; deleting 34 > max(32, 10% of 39).
	var edges [][2]int32
	for v := int32(1); v < 40; v++ {
		edges = append(edges, [2]int32{v - 1, v})
	}
	id := registerEdgeGraph(t, ts.URL, 40, edges)
	var muts []map[string]any
	for v := 1; v <= 34; v++ {
		muts = append(muts, mut("remove", v-1, v))
	}
	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(muts...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
	}
	var pr struct {
		Rebuilt      bool `json:"rebuilt"`
		RemovedEdges int  `json:"removedEdges"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Rebuilt || pr.RemovedEdges != 34 {
		t.Fatalf("rebuild batch response %+v (body %s)", pr, body)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(mbody), `kplistd_mutation_batches_total{mode="rebuild"} 1`) {
		t.Fatalf("rebuild not counted:\n%s", mbody)
	}
}

// TestPatchEdgesWorkloadGraph mutates a generated workload graph and
// checks the planted annotation is dropped (the guarantee no longer
// holds) while the listing stays exact.
func TestPatchEdgesWorkloadGraph(t *testing.T) {
	_, ts := newTestServer(t, nil)
	id, inst := registerWorkload(t, ts.URL, 80, 3)
	planted := inst.Props.Planted[0]
	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges",
		mutBody(mut("remove", int(planted[0]), int(planted[1]))))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d body %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/graphs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Planted != 0 {
		t.Fatalf("planted annotation survived a mutation: %+v", info)
	}
	// The served listing matches ground truth on the mutated graph.
	want := len(mutatedGroundTruth(t, inst, planted))
	if got := queryCliqueCount(t, ts.URL, id, 4); got != want {
		t.Fatalf("K4 count %d, want %d", got, want)
	}
}

// mutatedGroundTruth recomputes the K4 ground truth after removing the
// first planted clique's first edge.
func mutatedGroundTruth(t *testing.T, inst *kplist.WorkloadInstance, planted kplist.Clique) []kplist.Clique {
	t.Helper()
	var edges []kplist.Edge
	cut := kplist.Edge{U: planted[0], V: planted[1]}
	for _, e := range inst.G.Edges() {
		if e == cut {
			continue
		}
		edges = append(edges, e)
	}
	g, err := kplist.NewGraph(inst.G.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return kplist.GroundTruth(g, 4)
}

// FuzzReplicaApply drives the mutation surface on a live handler: an
// arbitrary JSON body and X-Kplist-Seq value go to both PATCH /edges and
// PATCH /replica (an empty seq sends no header). Every input gets a 2xx
// or a 4xx, never a 5xx or a panic, and a replica apply whose seq header
// does not parse is refused with a 400. The handler is called directly,
// so a panic fails the target instead of closing a connection.
func FuzzReplicaApply(f *testing.F) {
	h := server.New(server.Config{MaxMutationBatch: 64}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs",
		strings.NewReader(`{"n":12,"edges":[[0,1],[1,2],[0,2]]}`)))
	var info server.GraphInfo
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
		f.Fatalf("register: status %d body %s", rec.Code, rec.Body)
	}
	add := `{"mutations":[{"op":"add","u":3,"v":4}]}`
	for _, seed := range []struct{ body, seq string }{
		{add, "abc"},
		{add, "-1"},
		{add, "18446744073709551616"},
		{add, ""},
		{add, "1"},
		{`{"mutations":[]}`, "2"}, // empty batch
		{`{"mutations":[{"op":"toggle","u":0,"v":1}]}`, ""}, // unknown op
		{`{"mutations":[{"op":"add","u":0,"v":99}]}`, "3"},  // out-of-range vertex
	} {
		f.Add([]byte(seed.body), seed.seq)
	}
	f.Fuzz(func(t *testing.T, body []byte, seq string) {
		for _, path := range []string{"/edges", "/replica"} {
			req := httptest.NewRequest(http.MethodPatch, "/v1/graphs/"+info.ID+path, bytes.NewReader(body))
			if seq != "" {
				req.Header.Set(server.SeqHeader, seq)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 || rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 {
				t.Fatalf("%s seq %q body %q: status %d %s", path, seq, body, rec.Code, rec.Body)
			}
			if _, err := strconv.ParseUint(seq, 10, 64); path == "/replica" && seq != "" && err != nil &&
				rec.Code != http.StatusBadRequest {
				t.Fatalf("replica seq %q: status %d, want 400", seq, rec.Code)
			}
		}
	})
}
