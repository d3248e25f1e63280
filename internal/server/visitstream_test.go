package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"kplist"
	"kplist/internal/server"
)

// visitLines is the reference encoding of a visit-order truth stream.
func visitLines(g *kplist.Graph, p int) string {
	var b []byte
	g.VisitCliques(p, func(c kplist.Clique) { b = c.AppendLine(b) })
	return string(b)
}

// TestTruthVisitAfterPatch checks the memoized visit-order stream
// against a fresh VisitCliques encoding of the new snapshot after a PATCH
// that leaves the K4s alone but changes the order the kernel visits them
// in, and after one that adds K4s. The first batch re-keys the lex memo,
// so a visit memo re-keyed the same way would serve the old order.
func TestTruthVisitAfterPatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	g := kplist.ErdosRenyi(14, 0.45, 2)
	var edges [][2]int32
	for _, e := range g.Edges() {
		edges = append(edges, [2]int32{e.U, e.V})
	}
	id := registerEdgeGraph(t, ts.URL, g.N(), edges)
	stream := func(query string) string {
		resp, body := get(t, ts.URL+"/v1/graphs/"+id+"/cliques?"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", query, resp.StatusCode, body)
		}
		return string(body)
	}
	want := func() (visit, lex string) {
		kes := make([]kplist.Edge, len(edges))
		for i, e := range edges {
			kes[i] = kplist.Edge{U: e[0], V: e[1]}
		}
		ng, err := kplist.NewGraph(g.N(), kes)
		if err != nil {
			t.Fatal(err)
		}
		return visitLines(ng, 4), encodeLines(ng.ListCliques(4))
	}
	before, _ := want()
	for i := 0; i < 2; i++ { // a miss, then a hit
		if got := stream(visitQuery); got != before {
			t.Fatalf("visit stream %q, want %q", got, before)
		}
	}
	stream(lexQuery)

	// The first missing edge that completes a K4.
	var grow [2]int32
	for u := int32(0); grow == [2]int32{}; u++ {
		for v := u + 1; v < int32(g.N()); v++ {
			if !g.HasEdge(u, v) && completesK4(g, u, v) {
				grow = [2]int32{u, v}
				break
			}
		}
	}
	for _, batch := range [][][2]int32{
		{{2, 4}}, // no K4 through it, but the visit order moves
		{grow},   // the listing changes
	} {
		prevVisit, prevLex := want()
		var muts []map[string]any
		for _, e := range batch {
			muts = append(muts, mut("add", int(e[0]), int(e[1])))
			edges = append(edges, e)
		}
		if resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(muts...)); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch %v: status %d body %s", batch, resp.StatusCode, body)
		}
		visit, lex := want()
		if visit == prevVisit {
			t.Fatalf("fixture: adding %v left the visit order alone", batch)
		}
		if keep := batch[0] != grow; (lex == prevLex) != keep {
			t.Fatalf("fixture: adding %v changed the K4 listing: %v, want %v", batch, lex != prevLex, !keep)
		}
		for i := 0; i < 2; i++ {
			if got := stream(visitQuery); got != visit {
				t.Fatalf("after adding %v: visit stream %q, want %q", batch, got, visit)
			}
		}
		if got := stream(lexQuery); got != lex {
			t.Fatalf("after adding %v: lex stream %q, want %q", batch, got, lex)
		}
	}
}

// completesK4 reports whether u and v have two adjacent common
// neighbours.
func completesK4(g *kplist.Graph, u, v int32) bool {
	var common []int32
	for _, w := range g.Neighbors(u) {
		if g.HasEdge(v, w) {
			common = append(common, w)
		}
	}
	for i, a := range common {
		for _, b := range common[i+1:] {
			if g.HasEdge(a, b) {
				return true
			}
		}
	}
	return false
}

// TestTruthHugePIsEmpty: a clique size far past the graph's degeneracy is
// an empty listing that costs nothing — every truth form answers 200 with
// no cliques, allocating nowhere near O(p).
func TestTruthHugePIsEmpty(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	rec := httptest.NewRecorder()
	body := `{"edges":[[0,1],[1,2],[0,2],[2,3]],"n":4}`
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d body %s", rec.Code, rec.Body)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	id := info.ID
	for _, q := range []string{"&algo=truth", "&algo=truth&order=lex", "&algo=truth&stream=0"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/"+id+"/cliques?p=1073741824"+q, nil))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", q, rec.Code, rec.Body)
		}
		if strings.HasSuffix(q, "stream=0") {
			if !strings.Contains(rec.Body.String(), `"count":0`) {
				t.Fatalf("%s: document %s, want an empty listing", q, rec.Body)
			}
		} else if rec.Body.Len() != 0 {
			t.Fatalf("%s: stream %q, want an empty listing", q, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: allocated %d bytes for an empty listing", q, alloc)
		}
	}
}
