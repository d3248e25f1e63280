package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kplist/internal/graph"
)

// cannedShard is a fake node: it accepts shard registrations and answers
// every /cliques request with body.
func cannedShard(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/graphs":
			w.WriteHeader(http.StatusCreated)
			io.WriteString(w, "{}")
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/cliques"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, body)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestScatterRejectsBadShardLines feeds the gateway's scatter filter shard
// bodies no real node writes. A bad first line is a 502; a bad line after
// merged output went out aborts the response, so the client reads the
// prefix and then a truncated stream. The gateway never panics on the
// bytes (the old filter indexed the partition with whatever it parsed).
func TestScatterRejectsBadShardLines(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		status     int
		prefix     string // the bytes read before the truncation, if any
	}{
		{"ok", "[0,1]\n[1,2]\n[2,3]\n", http.StatusOK, ""},
		{"negative first", "[-1,2]\n", http.StatusBadGateway, ""},
		{"out of range first", "[0,9]\n", http.StatusBadGateway, ""},
		{"overflow first", "[0,99999999999999999999]\n", http.StatusBadGateway, ""},
		{"wrong arity first", "[0,1,2]\n", http.StatusBadGateway, ""},
		{"garbage first", "{\"error\":\"x\"}\n", http.StatusBadGateway, ""},
		{"out of range later", "[0,1]\n[2,99]\n", http.StatusOK, "[0,1]\n"},
		{"negative later", "[0,1]\n[1,2]\n[-3,2]\n", http.StatusOK, "[0,1]\n[1,2]\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := cannedShard(t, tc.body)
			c, err := NewClient(Config{Members: []Member{{Name: "n1", Addr: node.URL}}, Replication: 1},
				ClientOptions{RetryBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(map[string]any{"n": 4, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}}})
			meta, err := c.RegisterPartitioned(context.Background(), body, 2)
			if err != nil {
				t.Fatal(err)
			}
			gw := httptest.NewServer(NewGateway(c))
			defer gw.Close()

			resp, err := http.Get(gw.URL + "/v1/graphs/" + meta.ID + "/cliques?p=2")
			if err != nil {
				t.Fatalf("request failed outright: %v", err)
			}
			defer resp.Body.Close()
			got, readErr := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, got, tc.status)
			}
			switch {
			case tc.status == http.StatusBadGateway:
				if !strings.Contains(string(got), "bad clique line") && !strings.Contains(string(got), "vertices") {
					t.Fatalf("502 body does not name the bad line: %s", got)
				}
			case tc.prefix != "":
				if readErr == nil {
					t.Fatalf("truncated stream read cleanly as %q", got)
				}
				if string(got) != tc.prefix {
					t.Fatalf("read %q before the truncation, want %q", got, tc.prefix)
				}
			default:
				if readErr != nil || string(got) != tc.body {
					t.Fatalf("read %q, %v; want %q", got, readErr, tc.body)
				}
			}
		})
	}
}

// loopReader replays b forever, so a scanner over it never ends.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// benchShardStream builds one shard's filtered stream over the sorted
// 4-cliques of a planted graph split three ways, replayed endlessly.
func benchShardStream(tb testing.TB) *shardStream {
	const n, t, p = 2048, 3, 4
	g, _ := graph.PlantedCliques(n, 6, 40, 0.02, rand.New(rand.NewSource(9)))
	var body []byte
	for _, c := range g.ListCliques(p) {
		body = c.AppendLine(body)
	}
	if len(body) == 0 {
		tb.Fatal("degenerate benchmark graph: no K4s")
	}
	rng := rand.New(rand.NewSource(3))
	pg := &pgraph{n: n, p: p, parts: t, partOf: make([]int32, n), sigs: newSigIndex(t, p)}
	for v := range pg.partOf {
		pg.partOf[v] = int32(rng.Intn(t))
	}
	for range signatures(t, p) {
		pg.sigOwner = append(pg.sigOwner, int32(rng.Intn(t)))
	}
	sc := bufio.NewScanner(&loopReader{b: body})
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	s := &shardStream{member: "n1", index: 0, sc: sc, pg: pg}
	if err := s.advance(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestShardStreamSteadyStateZeroAlloc is the scatter filter's alloc
// canary, pinned by the CI bench-smoke job: once warm, moving a shard
// stream to its next owned clique (scan, parse, rank, owner lookup)
// allocates nothing.
func TestShardStreamSteadyStateZeroAlloc(t *testing.T) {
	s := benchShardStream(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.advance(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state shard stream advance allocated %.2f objects/op, want 0", allocs)
	}
}

// BenchmarkShardStreamAdvance times the scatter filter per owned line:
// about a third of the lines it reads belong to the shard.
func BenchmarkShardStreamAdvance(b *testing.B) {
	s := benchShardStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.advance(); err != nil {
			b.Fatal(err)
		}
	}
}
