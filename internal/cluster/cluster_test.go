package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kplist/internal/cluster"
	"kplist/internal/server"
)

// harness is a loopback cluster: n in-process kplistd servers in cluster
// mode behind httptest listeners, plus a gateway (client + HTTP front)
// and a standalone single-node reference server for byte-comparison.
type harness struct {
	t      testing.TB
	names  []string
	nodes  map[string]*httptest.Server
	client *cluster.Client
	gw     *httptest.Server
	ref    *httptest.Server
}

func newHarness(t testing.TB, n, replication int, seed int64) *harness {
	t.Helper()
	h := &harness{t: t, nodes: make(map[string]*httptest.Server)}
	// The node-side ring is built from the same names but placeholder
	// addresses: placement hashes names only, so nodes and gateway agree
	// even though only the gateway knows the real listener URLs.
	placeholder := make([]cluster.Member, n)
	for i := range placeholder {
		placeholder[i] = cluster.Member{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("placeholder%d:1", i+1)}
	}
	nodeCfg := cluster.Config{Members: placeholder, Replication: replication, Seed: seed}
	real := make([]cluster.Member, n)
	for i := range placeholder {
		name := placeholder[i].Name
		ring, err := cluster.NewRing(nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{ClusterSelf: name, ClusterRing: ring})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		h.names = append(h.names, name)
		h.nodes[name] = ts
		real[i] = cluster.Member{Name: name, Addr: ts.URL}
	}
	client, err := cluster.NewClient(
		cluster.Config{Members: real, Replication: replication, Seed: seed},
		cluster.ClientOptions{RetryBackoff: time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.client = client
	h.gw = httptest.NewServer(cluster.NewGateway(client))
	t.Cleanup(h.gw.Close)
	h.ref = httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(h.ref.Close)
	return h
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
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
	var out map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, out
}

func do(t testing.TB, method, url string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// stream fetches a clique NDJSON stream and returns the body.
func stream(t testing.TB, base, id string, p int, query string) string {
	t.Helper()
	url := fmt.Sprintf("%s/v1/graphs/%s/cliques?p=%d&stream=1%s", base, id, p, query)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func workloadBody(family string, n int, seed int64) map[string]any {
	return map[string]any{
		"name":     fmt.Sprintf("%s-%d", family, seed),
		"workload": map[string]any{"family": family, "n": n, "seed": seed},
	}
}

func TestGatewayRegisterAndListMatchesSingleNode(t *testing.T) {
	h := newHarness(t, 3, 2, 7)
	body := workloadBody("planted-clique", 200, 11)
	st, meta := postJSON(t, h.gw.URL+"/v1/graphs", body)
	if st != http.StatusCreated {
		t.Fatalf("gateway register: status %d: %v", st, meta)
	}
	id, _ := meta["id"].(string)
	if id == "" || strings.HasPrefix(id, "g") {
		t.Fatalf("gateway should mint a cluster ID, got %q", id)
	}
	if meta["owner"] == "" || meta["replicas"] == nil {
		t.Fatalf("register response missing placement: %v", meta)
	}
	if acks, ok := meta["replicaAcks"].(float64); !ok || acks != 1 {
		t.Fatalf("want 1 replica ack with R=2, got %v", meta["replicaAcks"])
	}

	st, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
	if st != http.StatusCreated {
		t.Fatalf("reference register: %d", st)
	}
	if meta["n"] != refMeta["n"] || meta["m"] != refMeta["m"] {
		t.Fatalf("cluster graph (n=%v m=%v) differs from single node (n=%v m=%v)",
			meta["n"], meta["m"], refMeta["n"], refMeta["m"])
	}

	// GET through the gateway resolves the same info.
	resp := do(t, http.MethodGet, h.gw.URL+"/v1/graphs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway GET: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The merged listing shows the graph exactly once despite R=2 copies.
	resp = do(t, http.MethodGet, h.gw.URL+"/v1/graphs", nil)
	var list struct {
		Graphs []map[string]any `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := 0
	for _, g := range list.Graphs {
		if g["id"] == id {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("graph %s appears %d times in merged listing: %v", id, found, list.Graphs)
	}
}

func TestGatewayCliquesByteIdenticalToSingleNode(t *testing.T) {
	h := newHarness(t, 3, 2, 3)
	body := workloadBody("stochastic-block", 220, 5)
	_, meta := postJSON(t, h.gw.URL+"/v1/graphs", body)
	id := meta["id"].(string)
	_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
	refID := refMeta["id"].(string)

	for _, q := range []string{"&algo=truth&order=lex", "&algo=truth", "&algo=congest&seed=1", ""} {
		for _, p := range []int{3, 4} {
			if strings.Contains(q, "congest") && p < 4 {
				continue
			}
			got := stream(t, h.gw.URL, id, p, q)
			want := stream(t, h.ref.URL, refID, p, q)
			if got != want {
				t.Fatalf("p=%d query %q: gateway stream (%d bytes) differs from single node (%d bytes)",
					p, q, len(got), len(want))
			}
			if p == 3 && q == "" && len(got) == 0 {
				t.Fatal("empty stream — workload produced no triangles, test is vacuous")
			}
		}
	}
}

func TestGatewayPatchReplicatesAndFailsOver(t *testing.T) {
	h := newHarness(t, 3, 2, 1)
	body := workloadBody("stochastic-block", 150, 9)
	_, meta := postJSON(t, h.gw.URL+"/v1/graphs", body)
	id := meta["id"].(string)
	_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
	refID := refMeta["id"].(string)

	// Apply identical mutation batches through the gateway and directly to
	// the reference node.
	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 10; batch++ {
		muts := make([]map[string]any, 12)
		for i := range muts {
			op := "add"
			if rng.Intn(3) == 0 {
				op = "remove"
			}
			u := int32(rng.Intn(150))
			v := int32(rng.Intn(150))
			if u == v {
				v = (v + 1) % 150
			}
			muts[i] = map[string]any{"op": op, "u": u, "v": v}
		}
		pb, _ := json.Marshal(map[string]any{"mutations": muts})
		resp := do(t, http.MethodPatch, h.gw.URL+"/v1/graphs/"+id+"/edges", pb)
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("gateway patch: %d: %s", resp.StatusCode, raw)
		}
		if acks := resp.Header.Get("X-Kplist-Replica-Acks"); acks != "1" {
			t.Fatalf("want 1 replica ack per batch, got %q", acks)
		}
		resp.Body.Close()
		resp = do(t, http.MethodPatch, h.ref.URL+"/v1/graphs/"+refID+"/edges", pb)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference patch: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	want := stream(t, h.ref.URL, refID, 3, "&algo=truth&order=lex")
	if got := stream(t, h.gw.URL, id, 3, "&algo=truth&order=lex"); got != want {
		t.Fatal("mutated cluster stream differs from mutated single-node stream")
	}

	// Kill the owner: reads must fail over to the replica and still match.
	owner := h.client.Ring().Owner(id).Name
	h.nodes[owner].Close()
	if got := stream(t, h.gw.URL, id, 3, "&algo=truth&order=lex"); got != want {
		t.Fatal("replica stream after owner death differs from single-node stream")
	}
	if h.client.MemberUp(owner) {
		t.Fatalf("owner %s should be marked down after transport failures", owner)
	}

	// Writes do not fail over: the owner is the only member allowed to
	// acknowledge a mutation batch.
	pb, _ := json.Marshal(map[string]any{"mutations": []map[string]any{{"op": "add", "u": 0, "v": 1}}})
	resp := do(t, http.MethodPatch, h.gw.URL+"/v1/graphs/"+id+"/edges", pb)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("patch with dead owner: status %d, want 502", resp.StatusCode)
	}
	resp.Body.Close()

	// Gateway metrics surface the failover and the member state.
	resp = do(t, http.MethodGet, h.gw.URL+"/metrics", nil)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"kplistgw_failover_reads_total",
		fmt.Sprintf("kplistgw_member_up{member=%q} 0", owner),
		"kplistgw_replica_acks_total 11", // register fan-out + 10 patch batches
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("gateway /metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestClusterGateRefusesMisdirected(t *testing.T) {
	h := newHarness(t, 3, 1, 2) // R=1: exactly one member hosts each graph
	_, meta := postJSON(t, h.gw.URL+"/v1/graphs", workloadBody("grid", 64, 1))
	id := meta["id"].(string)
	owner := h.client.Ring().Owner(id).Name

	for _, name := range h.names {
		if name == owner {
			continue
		}
		// Unmarked external read on a non-hosting node: 421 + owner hint.
		resp := do(t, http.MethodGet, h.nodes[name].URL+"/v1/graphs/"+id, nil)
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("non-owner %s answered %d, want 421", name, resp.StatusCode)
		}
		var hint map[string]any
		json.NewDecoder(resp.Body).Decode(&hint)
		resp.Body.Close()
		if hint["owner"] != owner {
			t.Fatalf("421 hint names %v, want %s", hint["owner"], owner)
		}
		// External registration on a node is refused too.
		st, _ := postJSON(t, h.nodes[name].URL+"/v1/graphs", workloadBody("grid", 32, 2))
		if st != http.StatusMisdirectedRequest {
			t.Fatalf("node-local register answered %d, want 421", st)
		}
	}
	// The owner itself serves unmarked reads.
	resp := do(t, http.MethodGet, h.nodes[owner].URL+"/v1/graphs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner refused its own graph: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestGatewayDeleteRemovesAllReplicas(t *testing.T) {
	h := newHarness(t, 3, 2, 4)
	_, meta := postJSON(t, h.gw.URL+"/v1/graphs", workloadBody("grid", 49, 3))
	id := meta["id"].(string)
	resp := do(t, http.MethodDelete, h.gw.URL+"/v1/graphs/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp.Body.Close()
	for name, node := range h.nodes {
		r := do(t, http.MethodGet, node.URL+"/v1/graphs", nil)
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if strings.Contains(string(raw), id) {
			t.Fatalf("node %s still lists %s after cluster delete", name, id)
		}
	}
	resp = do(t, http.MethodDelete, h.gw.URL+"/v1/graphs/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestGatewayQueryRoutesToOwner(t *testing.T) {
	h := newHarness(t, 3, 2, 6)
	body := workloadBody("planted-clique", 180, 21)
	_, meta := postJSON(t, h.gw.URL+"/v1/graphs", body)
	id := meta["id"].(string)
	_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
	refID := refMeta["id"].(string)

	q := map[string]any{"p": 4, "algo": "congest"}
	st, got := postJSON(t, h.gw.URL+"/v1/graphs/"+id+"/query", q)
	if st != http.StatusOK {
		t.Fatalf("gateway query: %d: %v", st, got)
	}
	st, want := postJSON(t, h.ref.URL+"/v1/graphs/"+refID+"/query", q)
	if st != http.StatusOK {
		t.Fatalf("reference query: %d", st)
	}
	gr := got["results"].([]any)[0].(map[string]any)
	wr := want["results"].([]any)[0].(map[string]any)
	if gr["cliques"] != wr["cliques"] || gr["rounds"] != wr["rounds"] {
		t.Fatalf("gateway query result %v differs from single node %v", gr, wr)
	}
}

func TestGatewayHealthzAggregation(t *testing.T) {
	h := newHarness(t, 3, 2, 8)
	resp := do(t, http.MethodGet, h.gw.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with all members up: %d", resp.StatusCode)
	}
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz["status"] != "ok" || hz["membersUp"].(float64) != 3 {
		t.Fatalf("healthz %v", hz)
	}

	h.nodes[h.names[0]].Close()
	resp = do(t, http.MethodGet, h.gw.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead member: %d, want 503", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz["status"] != "degraded" || hz["membersUp"].(float64) != 2 {
		t.Fatalf("degraded healthz %v", hz)
	}
}

func TestEmbeddedClientSurface(t *testing.T) {
	h := newHarness(t, 3, 2, 10)
	ctx := context.Background()
	meta, err := h.client.Register(ctx, workloadBody("stochastic-block", 120, 13))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Owner == "" || len(meta.Replicas) != 1 || meta.ReplicaAcks != 1 {
		t.Fatalf("placement missing from typed register: %+v", meta)
	}
	out, acks, err := h.client.Patch(ctx, meta.ID, map[string]any{
		"mutations": []map[string]any{{"op": "add", "u": 0, "v": 1}},
	})
	if err != nil || acks != 1 {
		t.Fatalf("typed patch: %v (acks=%d)", err, acks)
	}
	if out["graph"] != meta.ID {
		t.Fatalf("patch response %v", out)
	}
	var buf bytes.Buffer
	if err := h.client.StreamCliques(ctx, meta.ID, 3, "truth", &buf); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Delete(ctx, meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.client.Patch(ctx, meta.ID, map[string]any{
		"mutations": []map[string]any{{"op": "add", "u": 0, "v": 1}},
	}); err == nil {
		t.Fatal("patch after delete should fail")
	}
}

func TestProberMarksMembers(t *testing.T) {
	h := newHarness(t, 2, 2, 12)
	h.client.Start()
	defer h.client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.client.MemberUp("n1") && h.client.MemberUp("n2") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.nodes["n1"].Close()
	// Force a probe by making a request that fails, then wait for state.
	resp := do(t, http.MethodGet, h.gw.URL+"/healthz", nil)
	resp.Body.Close()
	if h.client.MemberUp("n1") {
		t.Fatal("closed member n1 still marked up after health pass")
	}
	if !h.client.MemberUp("n2") {
		t.Fatal("live member n2 marked down")
	}
}
