package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"kplist/internal/cluster"
	"kplist/internal/server"
)

// E14 measures the cluster serving layer end-to-end (DESIGN.md §12): a
// loopback cluster — N in-process kplistd nodes in cluster mode behind a
// gateway — swept across shard counts and replication factors. Three
// costs per cell: the owner-routed clique stream through the gateway, the
// scatter–gather merged stream of a partitioned registration, and the
// mutation-batch round trip including the synchronous replica fan-out.
// Everything is wall-clock, so E14 is never golden-pinned;
// `benchrunner -clusterbench BENCH_cluster.json` APPENDS each run to the
// committed trajectory like the kernel and store sweeps.

// ClusterMeasurement is one (shards, replication) cell of the sweep.
type ClusterMeasurement struct {
	Shards      int    `json:"shards"`
	Replication int    `json:"replication"`
	Family      string `json:"family"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// StreamNs is one owner-routed lexicographic truth stream of the
	// whole graph through the gateway (routing + relay overhead on top of
	// the node's own enumeration).
	StreamNs int64 `json:"streamNs"`
	// ScatterNs is the same listing served from the partitioned
	// registration: every shard streams the cliques rooted in its vertex
	// range and the gateway concatenates them into one byte-identical
	// stream.
	ScatterNs int64 `json:"scatterNs"`
	// PatchNsPerBatch is one 16-mutation PATCH through the gateway:
	// owner WAL-free apply + ack, then fan-out to the R−1 replicas.
	PatchNsPerBatch int64 `json:"patchNsPerBatch"`
	// StreamBytes sanity-pins that all cells of one run listed the same
	// graph (identical across shard counts by the scatter determinism).
	StreamBytes int64 `json:"streamBytes"`
}

// ClusterRun is one benchrunner invocation's worth of cluster cells — one
// point on the BENCH_cluster.json trajectory.
type ClusterRun struct {
	RunHeader
	Measurements []ClusterMeasurement `json:"cells"`
}

// benchCluster is a loopback cluster: n in-process cluster-mode servers
// behind httptest listeners fronted by an in-process gateway.
type benchCluster struct {
	gwURL string
	close func()
}

func newBenchCluster(shards, replication int, seed int64) (*benchCluster, error) {
	members := make([]cluster.Member, shards)
	for i := range members {
		members[i] = cluster.Member{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("placeholder%d:1", i+1)}
	}
	nodeCfg := cluster.Config{Members: members, Replication: replication, Seed: seed}
	var servers []*httptest.Server
	closeAll := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	real := make([]cluster.Member, shards)
	for i, m := range members {
		ring, err := cluster.NewRing(nodeCfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		ts := httptest.NewServer(server.New(server.Config{
			ClusterSelf:     m.Name,
			ClusterRing:     ring,
			DefaultDeadline: time.Minute,
		}).Handler())
		servers = append(servers, ts)
		real[i] = cluster.Member{Name: m.Name, Addr: ts.URL}
	}
	client, err := cluster.NewClient(
		cluster.Config{Members: real, Replication: replication, Seed: seed},
		cluster.ClientOptions{RetryBackoff: time.Millisecond},
	)
	if err != nil {
		closeAll()
		return nil, err
	}
	gw := httptest.NewServer(cluster.NewGateway(client))
	servers = append(servers, gw)
	return &benchCluster{gwURL: gw.URL, close: closeAll}, nil
}

// clusterPost POSTs a JSON body and decodes the JSON response.
func clusterPost(url string, body any) (map[string]any, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %v", url, resp.StatusCode, out)
	}
	return out, nil
}

// clusterStream drains one clique NDJSON stream and returns its length.
func clusterStream(base, id, query string) (int64, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/graphs/%s/cliques?%s", base, id, query))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET cliques: status %d", resp.StatusCode)
	}
	return n, nil
}

// clusterSweep returns the (shards, replication) grid: replication never
// exceeds the member count (the ring would clamp it and the cell would
// silently duplicate a smaller one).
func clusterSweep() [][2]int {
	var grid [][2]int
	for _, shards := range []int{1, 2, 3} {
		for _, repl := range []int{1, 2} {
			if repl <= shards {
				grid = append(grid, [2]int{shards, repl})
			}
		}
	}
	return grid
}

// ClusterBench runs the shards × replication sweep on a loopback cluster.
func ClusterBench(seed int64, quick bool) (*ClusterRun, error) {
	reps := 5
	n, batches := 220, 24
	if quick {
		reps = 3
		n, batches = 120, 8
	}
	const family = "planted-clique"
	run := &ClusterRun{RunHeader: newRunHeader(seed, quick)}
	body := map[string]any{
		"name":     fmt.Sprintf("%s-%d", family, seed),
		"workload": map[string]any{"family": family, "n": n, "seed": seed},
	}
	for _, cell := range clusterSweep() {
		shards, repl := cell[0], cell[1]
		c, err := newBenchCluster(shards, repl, seed)
		if err != nil {
			return nil, fmt.Errorf("clusterbench %d/%d: %w", shards, repl, err)
		}
		m := ClusterMeasurement{Shards: shards, Replication: repl, Family: family, N: n}

		meta, err := clusterPost(c.gwURL+"/v1/graphs", body)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("clusterbench %d/%d register: %w", shards, repl, err)
		}
		id, _ := meta["id"].(string)
		if mm, ok := meta["m"].(float64); ok {
			m.M = int(mm)
		}
		pmeta, err := clusterPost(c.gwURL+"/v1/graphs?partitioned=1&p=3", body)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("clusterbench %d/%d partitioned register: %w", shards, repl, err)
		}
		pid, _ := pmeta["id"].(string)

		// Warm both paths once (session-pool opens, shard peels), then
		// best-of time the steady-state streams.
		if m.StreamBytes, err = clusterStream(c.gwURL, id, "p=3&stream=1&algo=truth&order=lex"); err != nil {
			c.close()
			return nil, fmt.Errorf("clusterbench %d/%d stream: %w", shards, repl, err)
		}
		if _, err = clusterStream(c.gwURL, pid, "p=3&stream=1&algo=truth"); err != nil {
			c.close()
			return nil, fmt.Errorf("clusterbench %d/%d scatter: %w", shards, repl, err)
		}
		m.StreamNs = bestOf(reps, func() error {
			_, err := clusterStream(c.gwURL, id, "p=3&stream=1&algo=truth&order=lex")
			return err
		}).Nanoseconds()
		m.ScatterNs = bestOf(reps, func() error {
			_, err := clusterStream(c.gwURL, pid, "p=3&stream=1&algo=truth")
			return err
		}).Nanoseconds()

		// Mutation batches through the gateway: owner ack + replica
		// fan-out. Elapsed/batches (not best-of): each batch lands on a
		// different graph state, so the batches are the repetitions.
		rng := rand.New(rand.NewSource(seed))
		start := time.Now()
		for b := 0; b < batches; b++ {
			muts := make([]map[string]any, 16)
			for i := range muts {
				op := "add"
				if rng.Intn(2) == 0 {
					op = "remove"
				}
				u := rng.Intn(n)
				v := rng.Intn(n - 1)
				if v >= u {
					v++
				}
				muts[i] = map[string]any{"op": op, "u": u, "v": v}
			}
			buf, _ := json.Marshal(map[string]any{"mutations": muts})
			req, _ := http.NewRequest(http.MethodPatch, c.gwURL+"/v1/graphs/"+id+"/edges", bytes.NewReader(buf))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("clusterbench %d/%d patch: %w", shards, repl, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				c.close()
				return nil, fmt.Errorf("clusterbench %d/%d patch: status %d", shards, repl, resp.StatusCode)
			}
		}
		m.PatchNsPerBatch = time.Since(start).Nanoseconds() / int64(batches)

		c.close()
		run.Measurements = append(run.Measurements, m)
	}
	return run, nil
}

// Table renders the run as an aligned text table (wall-clock —
// informational, never golden-pinned).
func (r *ClusterRun) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# cluster: gateway stream / scatter–gather / replicated patch (%s, GOMAXPROCS=%d, seed=%d)\n",
		r.GoVersion, r.GOMAXPROCS, r.Seed)
	fmt.Fprintf(&sb, "%8s %6s %14s %6s %8s %14s %14s %16s %12s\n",
		"shards", "repl", "family", "n", "m", "stream-ns", "scatter-ns", "patch-ns/batch", "streamBytes")
	for _, m := range r.Measurements {
		fmt.Fprintf(&sb, "%8d %6d %14s %6d %8d %14d %14d %16d %12d\n",
			m.Shards, m.Replication, m.Family, m.N, m.M, m.StreamNs, m.ScatterNs, m.PatchNsPerBatch, m.StreamBytes)
	}
	return sb.String()
}

// Cells lists the stream, scatter and patch legs of each
// (shards, replication) cell.
func (r *ClusterRun) Cells() []Cell {
	var cells []Cell
	for _, m := range r.Measurements {
		base := fmt.Sprintf("/shards=%d/repl=%d/n=%d", m.Shards, m.Replication, m.N)
		cells = append(cells,
			Cell{"ClusterStream" + base, m.StreamNs},
			Cell{"ClusterScatter" + base, m.ScatterNs},
			Cell{"ClusterPatch" + base, m.PatchNsPerBatch})
	}
	return cells
}
