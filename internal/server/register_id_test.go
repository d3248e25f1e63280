package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kplist"
	"kplist/internal/server"
)

// filesOutside lists, relative to root, every path under root that is
// neither dataDir, inside it, nor one of its ancestors.
func filesOutside(t testing.TB, root, dataDir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path == dataDir {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		if rel != "." && !strings.HasPrefix(dataDir, path+string(filepath.Separator)) {
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// traversalIDs are caller-chosen graph IDs that are not one plain path
// segment: a durable node that named a directory after them would write
// (and on DELETE remove) outside its data directory.
var traversalIDs = []string{
	"../x", "../../victim", "../../../../victim", "a/b", "..", ".", ".x",
	"/abs", `a\b`, "a b", "x\x00y", strings.Repeat("a", 129),
}

// TestRegisterRejectsPathIDs: a caller-chosen ID outside the graph-ID
// charset gets a 400 and creates nothing, inside or outside DataDir, and
// a DELETE naming such an ID removes nothing.
func TestRegisterRejectsPathIDs(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "x", "y", "data")
	_, ts := newPersistentServer(t, dataDir, nil)
	victim := filepath.Join(root, "x", "y", "victim")
	if err := os.MkdirAll(victim, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(victim, "keep.txt"), []byte("unrelated"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := filesOutside(t, root, dataDir)

	for _, id := range traversalIDs {
		resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"id": id, "n": 3, "edges": [][2]int{{0, 1}}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("id %q: status %d %s, want 400", id, resp.StatusCode, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/..%2F..%2Fvictim", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE of a traversal ID: status %d, want 404", resp.StatusCode)
	}

	if after := filesOutside(t, root, dataDir); !slices.Equal(after, before) {
		t.Errorf("files outside DataDir changed: %v -> %v", before, after)
	}
	if ents, err := os.ReadDir(filepath.Join(dataDir, "graphs")); err != nil || len(ents) != 0 {
		t.Errorf("refused registrations left graph directories: %v %v", ents, err)
	}

	// Shard IDs — dots, dashes, underscores, up to 128 characters — still
	// register.
	for _, id := range []string{"c0123456789abcdef.s.node-1_a", "c0123456789abcdef.s." + strings.Repeat("m", 64), strings.Repeat("a", 128)} {
		if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"id": id, "n": 3, "edges": [][2]int{{0, 1}}}); resp.StatusCode != http.StatusCreated {
			t.Errorf("id %q: status %d %s, want 201", id, resp.StatusCode, body)
		}
	}
}

// FuzzRegister drives POST /v1/graphs on a live durable handler with
// arbitrary ids, vertex counts, edge lists, workload specs, families and
// seqs (edges and workload are sent only when they are valid JSON).
// Every input gets a 2xx or a 4xx, never a 5xx or a panic, and nothing
// is ever written outside DataDir. A registered graph is deleted again,
// so the registry never fills up. The handler is called directly, so a
// panic fails the target instead of closing a connection.
func FuzzRegister(f *testing.F) {
	root := f.TempDir()
	dataDir := filepath.Join(root, "x", "y", "data")
	s, err := server.Open(server.Config{
		MaxGraphs:       4,
		MaxUploadN:      64,
		MaxUploadEdges:  256,
		DefaultDeadline: time.Minute,
		DataDir:         dataDir,
		Store:           kplist.StoreConfig{NoSync: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()

	for _, id := range traversalIDs {
		f.Add(id, 3, []byte(`[[0,1]]`), []byte(``), "", uint64(0))
	}
	for _, seed := range []struct {
		id          string
		n           int
		edges, spec string
		family      string
		seq         uint64
	}{
		{"", 4, `[[0,1],[1,2],[0,2]]`, ``, "", 0},
		{"c0123456789abcdef", 5, `[[0,1]]`, ``, "erdos-renyi", 7},
		{"c0123456789abcdef.s.n1", 3, `[]`, ``, "", 1},
		{"g3", 3, `[[0,1]]`, ``, "", 0},
		{"", 0, ``, `{"family":"planted-clique","n":40,"seed":3,"cliqueSize":5}`, "", 9},
		{"w1", 0, ``, `{"family":"erdos-renyi","n":1000000,"seed":1}`, "", 0},
		{"", 3, `[[0,1]]`, `{"family":"planted-clique","n":10}`, "", 0},
		{"", -1, `[[0,5]]`, ``, "", 0},
		{"", 4, `[[0,0],[0,9]]`, ``, "", 0},
	} {
		f.Add(seed.id, seed.n, []byte(seed.edges), []byte(seed.spec), seed.family, seed.seq)
	}
	f.Fuzz(func(t *testing.T, id string, n int, edges, spec []byte, family string, seq uint64) {
		doc := map[string]any{"id": id, "n": n, "family": family, "seq": seq}
		if json.Valid(edges) {
			doc["edges"] = json.RawMessage(edges)
		}
		if json.Valid(spec) {
			doc["workload"] = json.RawMessage(spec)
		}
		body, err := json.Marshal(doc)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(string(body))))
		if rec.Code >= 500 || rec.Code < 200 || rec.Code >= 300 && rec.Code < 400 {
			t.Fatalf("%s: status %d %s", body, rec.Code, rec.Body)
		}
		if out := filesOutside(t, root, dataDir); len(out) > 0 {
			t.Fatalf("%s: wrote outside DataDir: %v", body, out)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		var info server.GraphInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("%s: created, but body %s: %v", body, rec.Body, err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/graphs/"+info.ID, nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("delete %q: status %d %s", info.ID, rec.Code, rec.Body)
		}
	})
}
