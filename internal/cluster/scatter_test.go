package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kplist"
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

// TestScatterRejectsBadShardLines feeds the gateway's scatter read shard
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

// TestScatterRejectsOverlappingShards: a shard that ignores its leg's
// root range would duplicate cliques. The path 0-1-2-3 at p=2 splits into
// n1 = [0, 1) and n2 = [1, 4). A leg whose first line lies outside its
// range fails the request with a 502 before any output; one that strays
// later aborts the stream after the lines before it, so the client reads
// a truncated prefix, never duplicated output.
func TestScatterRejectsOverlappingShards(t *testing.T) {
	const all = "[0,1]\n[1,2]\n[2,3]\n"
	for _, tc := range []struct {
		name, n1, n2 string
		status       int
		prefix       string // the bytes read before the truncation, if any
	}{
		{"honest", "[0,1]\n", "[1,2]\n[2,3]\n", http.StatusOK, ""},
		{"n2 ignores its range", "[0,1]\n", all, http.StatusBadGateway, ""},
		{"n1 ignores its range", all, "[1,2]\n[2,3]\n", http.StatusOK, "[0,1]\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewClient(Config{Members: []Member{
				{Name: "n1", Addr: cannedShard(t, tc.n1).URL}, {Name: "n2", Addr: cannedShard(t, tc.n2).URL},
			}, Replication: 1}, ClientOptions{RetryBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			reg, _ := json.Marshal(map[string]any{"n": 4, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}}})
			meta, err := c.RegisterPartitioned(context.Background(), reg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if b := c.partitionedGraph(meta.ID).bounds; !slices.Equal(b, []int{0, 1, 4}) {
				t.Fatalf("bounds %v, want [0 1 4]", b)
			}
			gw := httptest.NewServer(NewGateway(c))
			defer gw.Close()
			resp, err := http.Get(gw.URL + "/v1/graphs/" + meta.ID + "/cliques?p=2")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, readErr := io.ReadAll(resp.Body)
			switch {
			case resp.StatusCode != tc.status:
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, got, tc.status)
			case tc.status == http.StatusBadGateway:
				if !strings.Contains(string(got), "not rooted in the leg's range [1, 4)") {
					t.Fatalf("502 body does not name the range: %s", got)
				}
			case tc.prefix != "":
				if readErr == nil || string(got) != tc.prefix {
					t.Fatalf("read %q, %v; want %q and then a truncated stream", got, readErr, tc.prefix)
				}
			case readErr != nil || string(got) != all:
				t.Fatalf("read %q, %v; want %q", got, readErr, all)
			}
		})
	}
}

// TestRegisterPartitionedBoundsN: the gateway builds a partitioned graph
// itself, so an absurd vertex count is refused before anything is
// allocated for it.
func TestRegisterPartitionedBoundsN(t *testing.T) {
	c, err := NewClient(Config{Members: []Member{{Name: "n1", Addr: cannedShard(t, "").URL}}, Replication: 1},
		ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"n":1073741824}`, `{"workload":{"family":"grid","n":1073741824}}`} {
		if _, err := c.RegisterPartitioned(context.Background(), []byte(body), 3); err == nil ||
			!strings.Contains(err.Error(), "needs n ≤") {
			t.Fatalf("%s: err %v, want the n bound", body, err)
		}
	}
}

// sbm1024 is the stochastic-block graph the serving benchmark partitions:
// n=1024, seed 7.
func sbm1024(t *testing.T) *graph.Graph {
	t.Helper()
	inst, err := kplist.GenerateWorkload(kplist.WorkloadSpec{Family: kplist.WorkloadStochasticBlock, N: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return inst.G
}

// checkSplit checks splitByRoot's contract on g: the ranges are
// contiguous and cover [0, n), and each shard holds exactly the edges of
// the p-cliques its range roots, each once. It returns how many cliques
// each range roots.
func checkSplit(t *testing.T, g *graph.Graph, p int, bounds []int, shards [][]graph.Edge) []int {
	t.Helper()
	k := len(shards)
	if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != g.N() || !slices.IsSorted(bounds) {
		t.Fatalf("bounds %v do not cut [0, %d) into %d contiguous ranges", bounds, g.N(), k)
	}
	want := make([]map[graph.Edge]bool, k)
	for i := range want {
		want[i] = map[graph.Edge]bool{}
	}
	rooted := make([]int, k)
	for _, c := range g.ListCliques(p) {
		i := sort.SearchInts(bounds[1:], int(c[0])+1)
		rooted[i]++
		for a, u := range c {
			for _, v := range c[a+1:] {
				want[i][graph.Edge{U: u, V: v}] = true
			}
		}
	}
	for i, sh := range shards {
		got := map[graph.Edge]bool{}
		for _, e := range sh {
			got[e] = true
		}
		if len(got) != len(sh) || !maps.Equal(got, want[i]) {
			t.Fatalf("shard %d holds %d edges (%d distinct); the cliques range %d roots span %d",
				i, len(sh), len(got), i, len(want[i]))
		}
	}
	return rooted
}

// TestRootSplitBalance splits sbm-1024 for 3 members at p=4: no shard
// holds more than 0.6 m edges, the shards hold under 1.7 m together, and
// each range roots a third of the K4s within ±2%.
func TestRootSplitBalance(t *testing.T) {
	g := sbm1024(t)
	bounds, shards := splitByRoot(g, 4, 3)
	rooted := checkSplit(t, g, 4, bounds, shards)
	total, largest, cliques := 0, 0, 0
	for i, sh := range shards {
		total += len(sh)
		largest = max(largest, len(sh))
		cliques += rooted[i]
	}
	m := float64(g.M())
	t.Logf("m=%d bounds=%v shard edges=%d/%d/%d (%.2f m total) rooted=%v of %d",
		g.M(), bounds, len(shards[0]), len(shards[1]), len(shards[2]), float64(total)/m, rooted, cliques)
	if float64(largest) > 0.6*m || float64(total) >= 1.7*m {
		t.Fatalf("largest shard %d edges, total %d: want ≤ 0.6 m and < 1.7 m of m=%d", largest, total, g.M())
	}
	for i, r := range rooted {
		if third := float64(cliques) / 3; math.Abs(float64(r)-third) > 0.02*third {
			t.Fatalf("range %d roots %d of %d K4s, not within 2%% of a third", i, r, cliques)
		}
	}
}

// TestRootSplitEdgeCases: fewer vertices than members, and graphs with no
// p-clique. The ranges still cut [0, n) contiguously, and without a
// p-clique every shard is edgeless.
func TestRootSplitEdgeCases(t *testing.T) {
	triangle := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	path := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	for _, tc := range []struct {
		name    string
		n, k    int
		edges   []graph.Edge
		cliques int
	}{
		{"triangle, 5 members", 3, 5, triangle, 1},
		{"edge, 5 members", 2, 5, triangle[:1], 0},
		{"path", 5, 3, path, 0},
		{"isolated vertices", 4, 3, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.MustNew(tc.n, tc.edges)
			bounds, shards := splitByRoot(g, 3, tc.k)
			rooted := checkSplit(t, g, 3, bounds, shards)
			sum, edges := 0, 0
			for i := range shards {
				sum += rooted[i]
				edges += len(shards[i])
			}
			if sum != tc.cliques || tc.cliques == 0 && edges != 0 {
				t.Fatalf("bounds %v: %d cliques rooted, %d shard edges; want %d cliques", bounds, sum, edges, tc.cliques)
			}
		})
	}
}

// shardRecorder stands in for every member: it acknowledges each shard
// registration and records which host got which shard.
type shardRecorder struct {
	mu     sync.Mutex
	placed map[string]string // host + shard suffix → the shard's edges
}

func (r *shardRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var w registerWire
	if err := json.NewDecoder(req.Body).Decode(&w); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.placed[req.URL.Host+" "+w.ID[strings.Index(w.ID, ShardIDSuffix):]] = fmt.Sprint(w.N, w.Edges)
	r.mu.Unlock()
	return &http.Response{StatusCode: http.StatusCreated, Header: http.Header{},
		Body: io.NopCloser(strings.NewReader("{}")), Request: req}, nil
}

// TestRootSplitIgnoresIDAndSeed: the graph ID and the ring seed change
// neither the ranges nor which host gets which shard.
func TestRootSplitIgnoresIDAndSeed(t *testing.T) {
	body, _ := json.Marshal(map[string]any{"workload": kplist.WorkloadSpec{
		Family: kplist.WorkloadPlantedClique, N: 200, Seed: 3}})
	var first *shardRecorder
	var firstBounds []int
	for _, run := range []struct {
		id   string
		seed int64
	}{{"a", 1}, {"b", 1}, {"c", 99}} {
		rec := &shardRecorder{placed: map[string]string{}}
		c, err := NewClient(Config{Members: []Member{
			{Name: "n1", Addr: "http://h1"}, {Name: "n2", Addr: "http://h2"}, {Name: "n3", Addr: "http://h3"},
		}, Replication: 2, Seed: run.seed}, ClientOptions{HTTPClient: &http.Client{Transport: rec}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.registerPartitioned(context.Background(), run.id, body, 4); err != nil {
			t.Fatal(err)
		}
		bounds := c.partitionedGraph(run.id).bounds
		if first == nil {
			first, firstBounds = rec, bounds
			if len(rec.placed) != 6 {
				t.Fatalf("%d placements, want 3 shards × R=2", len(rec.placed))
			}
			continue
		}
		if !slices.Equal(bounds, firstBounds) {
			t.Fatalf("id %s seed %d: bounds %v, want %v", run.id, run.seed, bounds, firstBounds)
		}
		if !maps.Equal(rec.placed, first.placed) {
			t.Fatalf("id %s seed %d: the shards went to other hosts or hold other edges", run.id, run.seed)
		}
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
	s := &shardStream{member: "n1", sc: sc, pg: &pgraph{n: n, p: p}, hi: n}
	if err := s.advance(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestShardStreamSteadyStateZeroAlloc is the scatter read's alloc
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

// BenchmarkShardStreamAdvance times the scatter read of one shard line.
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
