package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"kplist/internal/graph"
	"kplist/internal/partition"
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
		{"duplicate later", "[0,1]\n[1,2]\n[1,2]\n", http.StatusOK, "[0,1]\n[1,2]\n"},
		{"out of order later", "[1,2]\n[0,1]\n", http.StatusOK, "[1,2]\n"},
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

// TestScatterRejectsOverlappingShards: two shards that both ignore their
// filter send the same cliques. The merge refuses the second copy of the
// first line, so the client reads one line and then a truncated stream,
// never duplicated output.
func TestScatterRejectsOverlappingShards(t *testing.T) {
	const body = "[0,1]\n[1,2]\n[2,3]\n"
	c, err := NewClient(Config{Members: []Member{
		{Name: "n1", Addr: cannedShard(t, body).URL}, {Name: "n2", Addr: cannedShard(t, body).URL},
	}, Replication: 1}, ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an ID whose placement gives both members a signature, so both
	// get a leg.
	id := ""
	for i := 0; i < 1000 && id == ""; i++ {
		owners := c.signatureOwners(fmt.Sprint("overlap", i), partition.Signatures(2, 2))
		if slices.Contains(owners, 0) && slices.Contains(owners, 1) {
			id = fmt.Sprint("overlap", i)
		}
	}
	if id == "" {
		t.Fatal("no graph ID in 1000 gives both members a signature")
	}
	reg, _ := json.Marshal(map[string]any{"n": 4, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}}})
	meta, err := c.registerPartitioned(context.Background(), id, reg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(NewGateway(c))
	defer gw.Close()
	resp, err := http.Get(gw.URL + "/v1/graphs/" + meta.ID + "/cliques?p=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, readErr := io.ReadAll(resp.Body)
	if readErr == nil || string(got) != "[0,1]\n" {
		t.Fatalf("read %q, %v; want the first line and then a truncated stream", got, readErr)
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

// benchShardStream builds one shard's stream over the sorted 4-cliques of
// a planted graph, replayed endlessly.
func benchShardStream(tb testing.TB) *shardStream {
	const n, p = 2048, 4
	g, _ := graph.PlantedCliques(n, 6, 40, 0.02, rand.New(rand.NewSource(9)))
	var body []byte
	for _, c := range g.ListCliques(p) {
		body = c.AppendLine(body)
	}
	if len(body) == 0 {
		tb.Fatal("degenerate benchmark graph: no K4s")
	}
	sc := bufio.NewScanner(&loopReader{b: body})
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	s := &shardStream{member: "n1", sc: sc, pg: &pgraph{n: n, p: p}}
	if err := s.advance(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestShardStreamSteadyStateZeroAlloc is the scatter merge's alloc
// canary, pinned by the CI bench-smoke job: once warm, moving a shard
// stream to its next clique (scan, parse, check) allocates nothing.
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

// BenchmarkShardStreamAdvance times the scatter merge's read of one shard
// line.
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
