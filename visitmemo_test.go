package kplist_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"kplist"
	"kplist/internal/server"
)

// TestSessionVisitLinesOverCeiling lowers the visit memo's byte ceiling
// below a listing: the session's entry then holds no chunks, and the
// node's visit-order stream, served from the kernel, is still
// byte-identical to VisitCliques.
func TestSessionVisitLinesOverCeiling(t *testing.T) {
	defer kplist.SetVisitMemoCeiling(256)()
	g := kplist.ErdosRenyi(60, 0.3, 3)
	var want []byte
	g.VisitCliques(3, func(c kplist.Clique) { want = c.AppendLine(want) })
	if len(want) <= 256 {
		t.Fatalf("fixture: the listing's %d bytes fit under the ceiling", len(want))
	}

	s := kplist.NewSession(g, kplist.SessionConfig{})
	defer s.Close()
	for i := 0; i < 2; i++ { // the fill, then a lookup of the marked entry
		if chunks, ok := s.GroundTruthChunks(3); ok || chunks != nil {
			t.Fatalf("over the ceiling: %d chunks, ok %v; want none, not ok", len(chunks), ok)
		}
		if chunks, over, found := s.VisitMemo(3); !found || !over || chunks != 0 {
			t.Fatalf("entry: found %v, over %v, %d chunks; want an over-ceiling entry holding nothing", found, over, chunks)
		}
	}
	var got []byte
	if err := s.VisitGroundTruth(t.Context(), 3, func(c kplist.Clique) bool { got = c.AppendLine(got); return true }); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("VisitGroundTruth: err %v, %d bytes, want %d", err, len(got), len(want))
	}

	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	edges := [][2]int32{}
	for _, e := range g.Edges() {
		edges = append(edges, [2]int32{e.U, e.V})
	}
	body, _ := json.Marshal(map[string]any{"n": g.N(), "edges": edges})
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, err %v", resp.StatusCode, err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/graphs/" + info.ID + "/cliques?p=3&algo=truth")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("stream %d: status %d, err %v, %d bytes, want the %d of VisitCliques", i, resp.StatusCode, err, len(got), len(want))
		}
	}
}
