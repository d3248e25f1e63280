package cluster_test

// The self-healing convergence suite (DESIGN.md §13): durable kplistd
// nodes behind a seeded faultnet fabric, a gateway client doing
// owner-first writes with a single best-effort fan-out, and the
// anti-entropy sweep that catches lagging replicas up from the owner's
// log (or installs the owner's export when the log cannot cover the gap).
// The contract under test: after any run of drops, partitions, and
// kill-restarts, once the network heals every replica's digest converges
// to its owner's, and the owner's state contains exactly the batches the
// gateway acknowledged — no acked write lost, no unacked write smuggled
// in (the fabric aborts faulted requests before the backend sees them).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kplist"
	"kplist/internal/cluster"
	"kplist/internal/faultnet"
	"kplist/internal/server"
)

// chaosHarness is a loopback cluster whose members sit behind faultnet
// proxies: n durable (WAL-backed) kplistd nodes, a routing client, a
// gateway front, and a standalone reference server that receives exactly
// the batches the cluster acknowledged.
type chaosHarness struct {
	t       *testing.T
	net     *faultnet.Net
	nodeCfg cluster.Config
	names   []string
	dirs    map[string]string
	proxies map[string]*faultnet.Proxy
	backend map[string]*httptest.Server
	store   kplist.StoreConfig
	client  *cluster.Client
	gw      *httptest.Server
	ref     *httptest.Server
}

// newChaosHarness builds the harness; every node's store runs with
// store's settings and NoSync.
func newChaosHarness(t *testing.T, n, replication int, fabricSeed int64, opts cluster.ClientOptions, store kplist.StoreConfig) *chaosHarness {
	t.Helper()
	store.NoSync = true
	h := &chaosHarness{
		t:       t,
		net:     faultnet.New(fabricSeed),
		dirs:    make(map[string]string),
		proxies: make(map[string]*faultnet.Proxy),
		backend: make(map[string]*httptest.Server),
		store:   store,
	}
	placeholder := make([]cluster.Member, n)
	for i := range placeholder {
		placeholder[i] = cluster.Member{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("placeholder%d:1", i+1)}
	}
	h.nodeCfg = cluster.Config{Members: placeholder, Replication: replication, Seed: fabricSeed}
	real := make([]cluster.Member, n)
	for i := range placeholder {
		name := placeholder[i].Name
		h.names = append(h.names, name)
		h.dirs[name] = t.TempDir()
		backend := httptest.NewServer(h.openNode(name).Handler())
		h.backend[name] = backend
		px := h.net.Proxy(name, backend.URL)
		h.proxies[name] = px
		front := httptest.NewServer(px)
		t.Cleanup(front.Close)
		real[i] = cluster.Member{Name: name, Addr: front.URL}
	}
	client, err := cluster.NewClient(
		cluster.Config{Members: real, Replication: replication, Seed: fabricSeed}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.client = client
	client.Start()
	t.Cleanup(client.Close)
	h.gw = httptest.NewServer(cluster.NewGateway(client))
	t.Cleanup(h.gw.Close)
	h.ref = httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(h.ref.Close)
	return h
}

func (h *chaosHarness) openNode(name string) *server.Server {
	h.t.Helper()
	ring, err := cluster.NewRing(h.nodeCfg)
	if err != nil {
		h.t.Fatal(err)
	}
	srv, err := server.Open(server.Config{
		ClusterSelf: name,
		ClusterRing: ring,
		DataDir:     h.dirs[name],
		Store:       h.store,
	})
	if err != nil {
		h.t.Fatalf("open node %s: %v", name, err)
	}
	return srv
}

// killRestart SIGKILLs a member in effigy: the old server instance is
// abandoned mid-flight (no Close, no flush — acknowledged batches must
// survive on the strength of the WAL alone), a fresh instance recovers
// from the same data dir, and the member's faultnet proxy is repointed
// at the replacement listener.
func (h *chaosHarness) killRestart(name string) {
	h.t.Helper()
	h.backend[name].Close() // the listener dies; the server state is never flushed
	backend := httptest.NewServer(h.openNode(name).Handler())
	h.backend[name] = backend
	h.t.Cleanup(backend.Close)
	h.proxies[name].SetBackend(backend.URL)
}

// pickID finds a deterministic graph ID with the wanted placement.
func (h *chaosHarness) pickID(prefix string, pred func(set []cluster.Member) bool) string {
	h.t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("%s%05d", prefix, i)
		if pred(h.client.Ring().ReplicaSet(id, h.nodeCfg.Replication)) {
			return id
		}
	}
	h.t.Fatalf("no ID with prefix %s satisfies the placement predicate", prefix)
	return ""
}

// pathGraphBody is a deterministic explicit-edge register body.
func pathGraphBody(id string, n int) []byte {
	edges := make([][2]int, 0, n-1)
	for u := 0; u < n-1; u++ {
		edges = append(edges, [2]int{u, u + 1})
	}
	b, _ := json.Marshal(map[string]any{"id": id, "name": "conv-" + id, "n": n, "edges": edges})
	return b
}

// register registers the body on the cluster and mirrors it to the
// reference server.
func (h *chaosHarness) register(ctx context.Context, id string, body []byte) int {
	h.t.Helper()
	resp, acks, err := h.client.RegisterRaw(ctx, id, body)
	if err != nil {
		h.t.Fatalf("register %s: %v", id, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		h.t.Fatalf("register %s: status %d", id, resp.StatusCode)
	}
	rr, err := http.Post(h.ref.URL+"/v1/graphs", "application/json", strings.NewReader(string(body)))
	if err != nil || rr.StatusCode != http.StatusCreated {
		h.t.Fatalf("reference register %s: %v / %d", id, err, rr.StatusCode)
	}
	rr.Body.Close()
	return acks
}

// patch applies one batch through the cluster; when (and only when) the
// owner acknowledges it, the same batch is applied to the reference
// server. Returns whether the batch was acknowledged.
func (h *chaosHarness) patch(ctx context.Context, id string, body []byte) bool {
	h.t.Helper()
	resp, _, err := h.client.PatchRaw(ctx, id, body)
	if err != nil {
		return false // unacked: the reference must not see it either
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	req, _ := http.NewRequest(http.MethodPatch, h.ref.URL+"/v1/graphs/"+id+"/edges", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rr, err := http.DefaultClient.Do(req)
	if err != nil || rr.StatusCode != http.StatusOK {
		h.t.Fatalf("reference patch %s: %v / %d", id, err, rr.StatusCode)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	return true
}

// digest fetches one member's version digest for one graph, straight
// from its (proxied) listener with the cluster forward mark set.
func (h *chaosHarness) digest(member, id string) (cluster.Digest, bool) {
	h.t.Helper()
	var d cluster.Digest
	addr := ""
	for _, m := range h.client.Ring().Members() {
		if m.Name == member {
			addr = m.Addr
		}
	}
	req, _ := http.NewRequest(http.MethodGet, addr+"/v1/graphs/"+id+"/digest", nil)
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return d, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return d, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return d, false
	}
	return d, true
}

// refDigest fetches the reference server's digest for one graph.
func (h *chaosHarness) refDigest(id string) cluster.Digest {
	h.t.Helper()
	resp, err := http.Get(h.ref.URL + "/v1/graphs/" + id + "/digest")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var d cluster.Digest
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		h.t.Fatal(err)
	}
	return d
}

// converged reports whether every replica's digest equals the owner's
// for the graph.
func (h *chaosHarness) converged(id string) bool {
	set := h.client.Ring().ReplicaSet(id, h.nodeCfg.Replication)
	od, ok := h.digest(set[0].Name, id)
	if !ok {
		return false
	}
	for _, m := range set[1:] {
		rd, ok := h.digest(m.Name, id)
		if !ok || rd.Seq != od.Seq || rd.Hash != od.Hash {
			return false
		}
	}
	return true
}

func (h *chaosHarness) waitMember(name string, up bool) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h.client.MemberUp(name) == up {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("member %s never became up=%v", name, up)
}

func batchBody(rng *rand.Rand, n, muts int) []byte {
	ms := make([]map[string]any, muts)
	for i := range ms {
		op := "add"
		if rng.Intn(3) == 0 {
			op = "remove"
		}
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		ms[i] = map[string]any{"op": op, "u": u, "v": v}
	}
	b, _ := json.Marshal(map[string]any{"mutations": ms})
	return b
}

// addrOf returns a member's (proxied) address as the client sees it.
func (h *chaosHarness) addrOf(member string) string {
	for _, m := range h.client.Ring().Members() {
		if m.Name == member {
			return m.Addr
		}
	}
	h.t.Fatalf("no member %s", member)
	return ""
}

// partitionAndPatch partitions member, applies k batches through the
// cluster (each must be acknowledged by the healthy owner), heals the
// member and waits for the prober to see it up.
func (h *chaosHarness) partitionAndPatch(ctx context.Context, member, id string, k int, next func() []byte) {
	h.t.Helper()
	h.net.Partition(member)
	h.waitMember(member, false)
	for i := 0; i < k; i++ {
		if !h.patch(ctx, id, next()) {
			h.t.Fatalf("batch %d of %d not acknowledged (the owner is healthy)", i+1, k)
		}
	}
	if h.converged(id) {
		h.t.Fatal("replica converged while partitioned — the fabric leaked")
	}
	h.net.Heal(member)
	h.waitMember(member, true)
}

// TestLogCatchUpAfterPartition pins the catch-up path: a replica that
// goes dark misses 5 acknowledged batches, and after the heal one sweep
// ships exactly those batches from the owner's log — no full-state
// transfer.
func TestLogCatchUpAfterPartition(t *testing.T) {
	h := newChaosHarness(t, 2, 2, 101, cluster.ClientOptions{
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{})
	ctx := context.Background()
	id := h.pickID("hh", func(set []cluster.Member) bool {
		return set[0].Name == "n1" && set[1].Name == "n2"
	})
	if acks := h.register(ctx, id, pathGraphBody(id, 32)); acks != 1 {
		t.Fatalf("register acks = %d, want 1", acks)
	}
	rng := rand.New(rand.NewSource(5))
	h.partitionAndPatch(ctx, "n2", id, 5, func() []byte { return batchBody(rng, 32, 6) })

	st := h.client.RepairNow(ctx)
	if st.Shipped != 5 || st.Repaired != 0 || st.Failed != 0 {
		t.Fatalf("sweep stats %+v: want Shipped 5, Repaired 0, Failed 0", st)
	}
	if !h.converged(id) {
		t.Fatal("replica digest still diverged after the catch-up sweep")
	}
	od, _ := h.digest("n1", id)
	if rd := h.refDigest(id); rd.Hash != od.Hash || rd.Seq != od.Seq {
		t.Fatalf("owner digest %+v diverged from reference %+v", od, rd)
	}
}

// TestRepairFallsBackToExportPastCompaction: an owner that compacts every
// 4 records no longer logs the first 8 of the 10 batches its partitioned
// replica missed, so the sweep installs the owner's export — exactly one
// install, nothing shipped.
func TestRepairFallsBackToExportPastCompaction(t *testing.T) {
	h := newChaosHarness(t, 2, 2, 303, cluster.ClientOptions{
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{CompactRecords: 4})
	ctx := context.Background()
	id := h.pickID("fb", func(set []cluster.Member) bool {
		return set[0].Name == "n1" && set[1].Name == "n2"
	})
	if acks := h.register(ctx, id, pathGraphBody(id, 32)); acks != 1 {
		t.Fatalf("register acks = %d, want 1", acks)
	}
	// Adds of fresh chords: every batch is effective, so the owner is at
	// seq 10 and its log starts at seq 8.
	k := 0
	h.partitionAndPatch(ctx, "n2", id, 10, func() []byte {
		k++
		b, _ := json.Marshal(map[string]any{"mutations": []map[string]any{{"op": "add", "u": 0, "v": k + 1}}})
		return b
	})

	st := h.client.RepairNow(ctx)
	if st.Repaired != 1 || st.Shipped != 0 || st.Failed != 0 {
		t.Fatalf("sweep stats %+v: want Repaired 1, Shipped 0, Failed 0", st)
	}
	if !h.converged(id) {
		t.Fatal("replica digest still diverged after the install")
	}
	od, _ := h.digest("n1", id)
	if rd := h.refDigest(id); od.Seq != 10 || rd.Hash != od.Hash || rd.Seq != od.Seq {
		t.Fatalf("owner digest %+v, reference %+v: want both at seq 10", od, rd)
	}
	if h.client.Metrics().Repairs() == 0 {
		t.Fatal("kplistgw_repairs_total stayed 0 across a repair")
	}
	resp, err := http.Get(h.gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "kplistgw_repairs_total 1\n") {
		t.Fatalf("gateway /metrics does not report the one repair:\n%s", raw)
	}
}

// countingTransport counts the response bytes the gateway reads for
// requests whose path starts with prefix.
type countingTransport struct {
	mu     sync.Mutex
	prefix string
	bytes  int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	c.mu.Lock()
	counted := err == nil && c.prefix != "" && strings.HasPrefix(req.URL.Path, c.prefix)
	c.mu.Unlock()
	if counted {
		resp.Body = &countedBody{ReadCloser: resp.Body, c: c}
	}
	return resp, err
}

// reset starts counting requests under prefix from zero.
func (c *countingTransport) reset(prefix string) {
	c.mu.Lock()
	c.prefix, c.bytes = prefix, 0
	c.mu.Unlock()
}

func (c *countingTransport) read() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

type countedBody struct {
	io.ReadCloser
	c *countingTransport
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.mu.Lock()
	b.c.bytes += int64(n)
	b.c.mu.Unlock()
	return n, err
}

// TestCatchUpBytesFollowMissedBatches pins what repair costs: the bytes a
// sweep reads for a graph that missed k batches grow with k, and for a
// fixed k do not depend on the graph's size — two graphs on the same
// vertices, one with more than 20× the other's edges, cost the same to
// within 64 bytes (the digests' m fields differ in width).
func TestCatchUpBytesFollowMissedBatches(t *testing.T) {
	ct := &countingTransport{}
	h := newChaosHarness(t, 2, 2, 404, cluster.ClientOptions{
		HTTPClient:     &http.Client{Transport: ct},
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{})
	ctx := context.Background()
	const n = 400
	bodyFor := func(id string, reach int) []byte {
		var edges [][2]int
		for u := 0; u < n; u++ {
			for d := 1; d <= reach && u+d < n; d++ {
				edges = append(edges, [2]int{u, u + d})
			}
		}
		b, _ := json.Marshal(map[string]any{"id": id, "n": n, "edges": edges})
		return b
	}
	cost := make(map[[2]int]int64) // (reach, k) → bytes
	for gi, reach := range []int{1, 25} {
		for _, k := range []int{1, 8} {
			id := h.pickID(fmt.Sprintf("by%d%d", gi, k), func(set []cluster.Member) bool {
				return set[0].Name == "n1" && set[1].Name == "n2"
			})
			if acks := h.register(ctx, id, bodyFor(id, reach)); acks != 1 {
				t.Fatalf("register acks = %d, want 1", acks)
			}
			// Chords of length 200: absent from both graphs, so every
			// batch is effective and the same size on both.
			i := 0
			h.partitionAndPatch(ctx, "n2", id, k, func() []byte {
				b, _ := json.Marshal(map[string]any{"mutations": []map[string]any{{"op": "add", "u": 100 + i, "v": 300 + i}}})
				i++
				return b
			})
			ct.reset("/v1/graphs/" + id + "/")
			st := h.client.RepairNow(ctx)
			if st.Shipped != k || st.Repaired != 0 {
				t.Fatalf("reach %d, k %d: sweep stats %+v, want Shipped %d and no install", reach, k, st, k)
			}
			cost[[2]int{reach, k}] = ct.read()
			ct.reset("")
		}
	}
	t.Logf("bytes read per sweep (reach, k): %v", cost)
	for _, reach := range []int{1, 25} {
		if cost[[2]int{reach, 8}] <= cost[[2]int{reach, 1}] {
			t.Fatalf("reach %d: 8 missed batches cost %d bytes, 1 cost %d — want growth with k",
				reach, cost[[2]int{reach, 8}], cost[[2]int{reach, 1}])
		}
	}
	for _, k := range []int{1, 8} {
		small, big := cost[[2]int{1, k}], cost[[2]int{25, k}]
		if d := big - small; d > 64 || d < -64 {
			t.Fatalf("k %d: the sparse graph's catch-up read %d bytes, the dense one's %d — want within 64", k, small, big)
		}
	}
}

// holdTransport parks the first request that matches hold until release
// is closed, signalling held when it parks.
type holdTransport struct {
	hold    func(*http.Request) bool
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *holdTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if h.hold(req) {
		parked := false
		h.once.Do(func() { parked = true })
		if parked {
			close(h.held)
			<-h.release
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDeleteDuringRepairStaysDeleted: a user DELETE that lands while a
// repair is between the owner's export and the replica's install must
// not leave the replica holding the deleted graph. Without the delete
// taking the graph's fan-out lock, the parked install lands after the
// delete, the next sweep skips the graph (the owner's digest is 404),
// and a gateway read fails over to the replica and serves it.
func TestDeleteDuringRepairStaysDeleted(t *testing.T) {
	var replicaAddr string
	ht := &holdTransport{held: make(chan struct{}), release: make(chan struct{})}
	ht.hold = func(req *http.Request) bool {
		return req.Method == http.MethodPost && req.URL.Path == "/v1/graphs" &&
			"http://"+req.URL.Host == replicaAddr
	}
	h := newChaosHarness(t, 2, 2, 505, cluster.ClientOptions{
		HTTPClient:     &http.Client{Transport: ht},
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{})
	ctx := context.Background()
	id := h.pickID("dr", func(set []cluster.Member) bool {
		return set[0].Name == "n1" && set[1].Name == "n2"
	})
	// The replica misses the registration, so the sweep installs.
	h.net.Partition("n2")
	h.waitMember("n2", false)
	if acks := h.register(ctx, id, pathGraphBody(id, 32)); acks != 0 {
		t.Fatalf("register acks = %d, want 0 (replica dark)", acks)
	}
	h.net.Heal("n2")
	h.waitMember("n2", true)
	replicaAddr = h.addrOf("n2")

	repaired := make(chan cluster.RepairStats, 1)
	go func() { repaired <- h.client.RepairNow(ctx) }()
	select {
	case <-ht.held: // the install POST is parked: export and replica DELETE are done
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep never reached the replica install")
	}
	deleted := make(chan error, 1)
	go func() {
		_, err := h.client.DeleteRaw(ctx, id)
		deleted <- err
	}()
	// Let an unlocked delete run to completion before the install lands.
	var delErr error
	delDone := false
	select {
	case delErr = <-deleted:
		delDone = true
	case <-time.After(200 * time.Millisecond):
	}
	close(ht.release)
	if st := <-repaired; st.Repaired != 1 {
		t.Fatalf("sweep stats %+v: want the parked install to complete", st)
	}
	if !delDone {
		delErr = <-deleted
	}
	if delErr != nil {
		t.Fatalf("delete: %v", delErr)
	}
	for _, name := range h.names {
		req, _ := http.NewRequest(http.MethodGet, h.addrOf(name)+"/v1/graphs/"+id, nil)
		req.Header.Set(cluster.ForwardHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("member %s answers %d for the deleted graph, want 404", name, resp.StatusCode)
		}
	}
}

// TestAntiEntropyRepairsMissedRegistration pins the sweeper: a replica
// that misses the registration and every batch has no log prefix to
// catch up from, and is healed by one full-state transfer, adopting the
// owner's sequence position.
func TestAntiEntropyRepairsMissedRegistration(t *testing.T) {
	h := newChaosHarness(t, 2, 2, 202, cluster.ClientOptions{
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{})
	ctx := context.Background()
	id := h.pickID("ae", func(set []cluster.Member) bool {
		return set[0].Name == "n1" && set[1].Name == "n2"
	})

	h.net.Partition("n2")
	h.waitMember("n2", false)
	if acks := h.register(ctx, id, pathGraphBody(id, 32)); acks != 0 {
		t.Fatalf("register acks = %d, want 0 (replica dark)", acks)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if !h.patch(ctx, id, batchBody(rng, 32, 6)) {
			t.Fatal("owner patch failed with healthy owner")
		}
	}

	h.net.Heal("n2")
	h.waitMember("n2", true)
	st := h.client.RepairNow(ctx)
	if st.Diverged == 0 || st.Repaired == 0 {
		t.Fatalf("sweep stats %+v: want at least one divergence and one repair", st)
	}
	if !h.converged(id) {
		t.Fatal("replica digest still diverged after RepairNow")
	}
	od, _ := h.digest("n1", id)
	rd, _ := h.digest("n2", id)
	if rd.Seq != od.Seq {
		t.Fatalf("repaired replica seq %d, want owner's %d (install must carry the seq floor)", rd.Seq, od.Seq)
	}
	if h.client.Metrics().Repairs() == 0 {
		t.Fatal("kplistgw_repairs_total stayed 0 across a repair")
	}
}

// TestConvergenceUnderChaosSchedule is the acceptance scenario: three
// durable nodes; a seeded schedule drops half of one member's replica
// applies; another member is partitioned for a third of the run and
// SIGKILL-restarted at heal. At quiesce every replica digest must equal
// its owner's, the cluster state must match a reference server that
// received exactly the acknowledged batches, the sweeps must have
// shipped log batches, and a final sweep must find nothing out of sync.
func TestConvergenceUnderChaosSchedule(t *testing.T) {
	h := newChaosHarness(t, 3, 2, 1234, cluster.ClientOptions{
		RetryBackoff:   time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		JitterSeed:     7,
		RepairInterval: -1,
	}, kplist.StoreConfig{})
	ctx := context.Background()

	events, err := faultnet.ParseSchedule(`
		# half of n2's replica applies vanish for the whole run
		@0 drop n2 0.5 path=/replica
	`)
	if err != nil {
		t.Fatal(err)
	}
	h.net.SetSchedule(events)

	// Three placements, each exercising a different failure arm:
	// A: replica behind the lossy link (drops → gaps → log catch-up)
	// B: owner is the partitioned member (writes fail, nothing acked)
	// C: replica is the partitioned member (misses, kill-restart, gaps →
	//    log catch-up)
	idA := h.pickID("cha", func(set []cluster.Member) bool {
		return set[0].Name == "n1" && set[1].Name == "n2"
	})
	idB := h.pickID("chb", func(set []cluster.Member) bool {
		return set[0].Name == "n3"
	})
	idC := h.pickID("chc", func(set []cluster.Member) bool {
		return set[0].Name != "n3" && set[1].Name == "n3"
	})
	ids := []string{idA, idB, idC}
	for _, id := range ids {
		h.register(ctx, id, pathGraphBody(id, 48))
	}

	rng := rand.New(rand.NewSource(77))
	acked := make(map[string]int)
	for batch := 0; batch < 60; batch++ {
		switch batch {
		case 20:
			h.net.Partition("n3")
			h.waitMember("n3", false)
		case 40:
			h.killRestart("n3")
			h.net.Heal("n3")
			h.waitMember("n3", true)
		}
		id := ids[batch%3]
		if h.patch(ctx, id, batchBody(rng, 48, 8)) {
			acked[id]++
		}
	}
	if acked[idA] != 20 || acked[idC] != 20 {
		t.Fatalf("graphs with healthy owners lost acks: A=%d C=%d, want 20 each", acked[idA], acked[idC])
	}
	if acked[idB] >= 20 || acked[idB] == 0 {
		t.Fatalf("partitioned-owner graph acked %d of 20 batches, want some but not all", acked[idB])
	}

	// Quiesce: heal every fault, then sweep until every digest converges.
	h.net.Heal("*")
	for _, name := range h.names {
		h.waitMember(name, true)
	}
	allConverged := func() bool {
		for _, id := range ids {
			if !h.converged(id) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	shipped := 0
	for !allConverged() {
		if time.Now().After(deadline) {
			t.Fatal("digests never converged at quiesce")
		}
		shipped += h.client.RepairNow(ctx).Shipped
		time.Sleep(20 * time.Millisecond)
	}

	// Zero acknowledged-write loss (and no phantom writes): each owner's
	// digest and truth stream match a reference that saw exactly the
	// acknowledged batches. B additionally proves the kill-restart kept
	// every batch acked before the partition.
	for _, id := range ids {
		set := h.client.Ring().ReplicaSet(id, 2)
		od, ok := h.digest(set[0].Name, id)
		if !ok {
			t.Fatalf("owner digest for %s unavailable at quiesce", id)
		}
		if rd := h.refDigest(id); rd.Hash != od.Hash || rd.Seq != od.Seq {
			t.Fatalf("graph %s: owner digest %+v != reference %+v — acked-batch mismatch", id, od, rd)
		}
		want := stream(t, h.ref.URL, id, 3, "&algo=truth&order=lex")
		if got := stream(t, h.gw.URL, id, 3, "&algo=truth&order=lex"); got != want {
			t.Fatalf("graph %s: cluster truth stream differs from reference", id)
		}
	}

	// The fabric must have actually bitten, and the healing machinery
	// must have actually run.
	stats := h.net.Stats()
	if stats.Drops < 4 {
		t.Fatalf("fabric dropped only %d replica applies — the schedule did not bite", stats.Drops)
	}
	if stats.Blackhole == 0 {
		t.Fatal("partition never blackholed a request")
	}
	if shipped == 0 {
		t.Fatal("the quiesce sweeps shipped no log batch")
	}
	if st := h.client.RepairNow(ctx); st.Diverged != 0 {
		t.Fatalf("a sweep after convergence found %d pairs out of sync", st.Diverged)
	}

	// The gateway /metrics surface exposes the self-healing counters.
	resp, err := http.Get(h.gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"kplistgw_log_batches_shipped_total",
		"kplistgw_divergence_detected_total",
		"kplistgw_repairs_total",
		"kplistgw_antientropy_sweeps_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("gateway /metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "kplistgw_log_batches_shipped_total 0\n") {
		t.Fatal("metrics text reports no shipped batches despite the sweeps' Shipped > 0")
	}
}
