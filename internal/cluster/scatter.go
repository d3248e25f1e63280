package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"kplist"
	"kplist/internal/graph"
)

// Partitioned graphs (POST /v1/graphs?partitioned=1&p=<p>) split one
// logical graph's edges across all members instead of replicating it
// whole. Registration fixes the clique size p, lists the graph's
// p-cliques once, and cuts [0, n) into one contiguous range of root
// vertices per member (a clique's root is its smallest vertex), so that
// each range roots about the same number of cliques. A member's shard
// subgraph holds exactly the edges of the cliques its range roots, so
// every clique is fully present in its owner's shard. Listing sends each
// member a leg carrying its range; the node streams only the cliques
// rooted there, in lex order, and the gateway concatenates the legs in
// range order, which reproduces the single-node NDJSON stream byte for
// byte. See DESIGN.md §12.
//
// ErrPartitionMismatch reports a listing query whose p differs from the
// p the partitioned graph was registered with.
var ErrPartitionMismatch = errors.New("cluster: query p differs from the partitioned registration")

// ErrPartitionedMutation reports a PATCH / POST query against a
// partitioned graph; only listing is supported in partitioned mode.
var ErrPartitionedMutation = errors.New("cluster: partitioned graphs are immutable (listing only)")

// ErrPartitionedDocument reports a stream=0 listing of a partitioned
// graph: the gateway serves it only as an NDJSON stream.
var ErrPartitionedDocument = errors.New("cluster: partitioned graphs list as an NDJSON stream only (stream=0 is not served)")

// pgraph is the gateway-side state of one partitioned graph.
type pgraph struct {
	id     string
	name   string
	family string
	p      int // clique size fixed at registration
	n, m   int
	// bounds cuts [0, n) into one range of root vertices per member, in
	// config order: member i owns the cliques whose smallest vertex lies
	// in [bounds[i], bounds[i+1]).
	bounds []int
}

func (c *Client) partitionedGraph(id string) *pgraph {
	c.pgMu.RLock()
	defer c.pgMu.RUnlock()
	return c.pgraphs[id]
}

// PartitionedMeta returns the cluster-level metadata for a partitioned
// graph, or false when id is not a partitioned graph.
func (c *Client) PartitionedMeta(id string) (GraphMeta, bool) {
	pg := c.partitionedGraph(id)
	if pg == nil {
		return GraphMeta{}, false
	}
	return pg.meta(), true
}

// PartitionedIDs lists the registered partitioned graph IDs, sorted.
func (c *Client) PartitionedIDs() []string {
	c.pgMu.RLock()
	defer c.pgMu.RUnlock()
	ids := make([]string, 0, len(c.pgraphs))
	for id := range c.pgraphs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (pg *pgraph) meta() GraphMeta {
	return GraphMeta{
		ID: pg.id, Name: pg.name, N: pg.n, M: pg.m, Family: pg.family,
		Partitioned: true, Shards: len(pg.bounds) - 1, P: pg.p,
	}
}

// maxPartitionedN bounds a partitioned graph's vertex count: kplistd's
// default MaxUploadN.
const maxPartitionedN = 1 << 20

// ShardIDSuffix marks shard graph IDs ("<cluster id>.s.<member>"). The
// gateway hides graphs carrying it from cluster-level listings.
const ShardIDSuffix = ".s."

// shardID is the ID of member's shard of pg.
func (pg *pgraph) shardID(member string) string { return pg.id + ShardIDSuffix + member }

// shardHosts returns where member i's shard lives: on the member, then
// on the next R−1 members in config order, its failover replicas.
func (c *Client) shardHosts(i int) []Member {
	hosts := make([]Member, c.cfg.Replication)
	for j := range hosts {
		hosts[j] = c.cfg.Members[(i+j)%len(c.cfg.Members)]
	}
	return hosts
}

// registerWire mirrors kplistd's register request body (plus the cluster
// ID extension) without importing internal/server.
type registerWire struct {
	ID       string               `json:"id,omitempty"`
	Name     string               `json:"name,omitempty"`
	N        int                  `json:"n,omitempty"`
	Edges    [][2]int32           `json:"edges,omitempty"`
	Workload *kplist.WorkloadSpec `json:"workload,omitempty"`
}

// RegisterPartitioned registers body as a partitioned graph with clique
// size p: it materializes the graph (generating the workload locally when
// the body carries a spec), splits it by root range (splitByRoot), and
// registers each member's shard subgraph on that member and its
// replicas.
func (c *Client) RegisterPartitioned(ctx context.Context, body []byte, p int) (GraphMeta, error) {
	return c.registerPartitioned(ctx, NewGraphID(), body, p)
}

func (c *Client) registerPartitioned(ctx context.Context, id string, body []byte, p int) (GraphMeta, error) {
	if p < 2 {
		return GraphMeta{}, fmt.Errorf("cluster: partitioned registration needs p >= 2, got %d", p)
	}
	var req registerWire
	if err := json.Unmarshal(body, &req); err != nil {
		return GraphMeta{}, fmt.Errorf("cluster: bad register body: %w", err)
	}
	// The gateway builds the graph itself, so it bounds n before
	// allocating, as kplistd does for an upload.
	if req.N > maxPartitionedN || req.Workload != nil && req.Workload.N > maxPartitionedN {
		return GraphMeta{}, fmt.Errorf("cluster: partitioned registration needs n ≤ %d", maxPartitionedN)
	}
	var (
		g      *graph.Graph
		family string
	)
	if req.Workload != nil {
		inst, err := kplist.GenerateWorkload(*req.Workload)
		if err != nil {
			return GraphMeta{}, err
		}
		g, family = inst.G, inst.Spec.Family
	} else {
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		var err error
		if g, err = graph.New(req.N, edges); err != nil {
			return GraphMeta{}, fmt.Errorf("cluster: bad register body: %w", err)
		}
	}
	if g.N() <= 0 {
		return GraphMeta{}, errors.New("cluster: partitioned registration needs n > 0")
	}

	bounds, shards := splitByRoot(g, p, len(c.cfg.Members))
	pg := &pgraph{id: id, name: req.Name, family: family, p: p, n: g.N(), m: g.M(), bounds: bounds}
	for i, m := range c.cfg.Members {
		if err := c.placeShard(ctx, pg, i, m.Name, shards[i]); err != nil {
			// Delete whatever was placed, even if ctx is done: no pgraph
			// will name these shards, and ShardIDSuffix hides them. The
			// registration fails either way, so a failed delete is
			// dropped.
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
			_ = c.deletePartitioned(cctx, pg)
			cancel()
			return GraphMeta{}, err
		}
	}
	c.pgMu.Lock()
	c.pgraphs[id] = pg
	c.pgMu.Unlock()
	return pg.meta(), nil
}

// splitByRoot lists g's p-cliques once and cuts [0, n) into k contiguous
// ranges of root vertices, range i = [bounds[i], bounds[i+1]), each
// rooting about len/k of the cliques. A cut falls only between roots, at
// whichever end of the target clique's root group is nearer. shards[i]
// holds exactly the edges of the cliques range i roots. With no p-clique
// every cut is n: the first range is [0, n) and every shard is edgeless.
func splitByRoot(g *graph.Graph, p, k int) (bounds []int, shards [][]graph.Edge) {
	cs := g.ListCliques(p) // lex order: grouped by root, roots ascending
	root := func(j int) int { return int(cs[j][0]) }
	bounds = make([]int, k+1)
	for i := 1; i <= k; i++ {
		t := i * len(cs) / k
		if t == len(cs) {
			bounds[i] = g.N()
			continue
		}
		r := root(t)
		first := sort.Search(t, func(j int) bool { return root(j) >= r })
		past := t + sort.Search(len(cs)-t, func(j int) bool { return root(t+j) > r })
		bounds[i] = r
		if t-first > past-t {
			bounds[i] = r + 1
		}
	}

	// Number the edges in Edges() order: {u, v} with u < v is edge
	// off[u] + v's index in u's sorted neighbour list.
	edges := g.Edges()
	off := make([]int, g.N())
	base := 0 // how many edges have their smaller end below u
	for u := range off {
		nb := g.Neighbors(graph.V(u))
		below, _ := slices.BinarySearch(nb, graph.V(u))
		off[u] = base - below
		base += len(nb) - below
	}
	// The cliques come range by range, so an edge is new to range i's
	// shard unless range i took it last. A pair inside the prefix a
	// clique shares with the one before it (same root, so same range)
	// was taken with that one.
	took := make([]int32, len(edges)) // range index + 1
	shards = make([][]graph.Edge, k)
	i := 0
	var prev graph.Clique
	for _, c := range cs {
		for int(c[0]) >= bounds[i+1] {
			i++
		}
		shared := 0
		for shared < len(prev) && c[shared] == prev[shared] {
			shared++
		}
		for b := max(shared, 1); b < len(c); b++ {
			for _, u := range c[:b] {
				j, _ := slices.BinarySearch(g.Neighbors(u), c[b])
				if e := off[u] + j; took[e] != int32(i+1) {
					took[e] = int32(i + 1)
					shards[i] = append(shards[i], edges[e])
				}
			}
		}
		prev = c
	}
	return bounds, shards
}

// placeShard registers member i's shard subgraph on the member (which
// must acknowledge) and then, best effort, on its replicas.
func (c *Client) placeShard(ctx context.Context, pg *pgraph, i int, member string, edges []graph.Edge) error {
	shardID := pg.shardID(member)
	wire := registerWire{
		ID:    shardID,
		Name:  pg.name + "/shard/" + member,
		N:     pg.n,
		Edges: make([][2]int32, len(edges)),
	}
	for j, e := range edges {
		wire.Edges[j] = [2]int32{e.U, e.V}
	}
	buf, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	for j, host := range c.shardHosts(i) {
		resp, err := c.forward(ctx, host, http.MethodPost, "/v1/graphs", buf)
		if j == 0 {
			if err != nil {
				return fmt.Errorf("%w: shard %s: %v", ErrNoQuorum, shardID, err)
			}
			if resp.StatusCode/100 != 2 {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				return fmt.Errorf("cluster: shard %s register: status %d: %s",
					shardID, resp.StatusCode, bytes.TrimSpace(msg))
			}
			drain(resp)
			continue
		}
		if err != nil || resp.StatusCode/100 != 2 {
			c.met.replicaFailures.Inc()
			if resp != nil {
				drain(resp)
			}
			continue
		}
		drain(resp)
		c.met.replicaAcks.Inc()
	}
	return nil
}

// deletePartitioned deletes every member's shard from all its hosts; a
// shard that is already gone (404) is no error.
func (c *Client) deletePartitioned(ctx context.Context, pg *pgraph) error {
	var lastErr error
	for i, m := range c.cfg.Members {
		shardID := pg.shardID(m.Name)
		for _, host := range c.shardHosts(i) {
			resp, err := c.forward(ctx, host, http.MethodDelete, "/v1/graphs/"+shardID, nil)
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", host.Name, err)
				continue
			}
			drain(resp)
			if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotFound {
				lastErr = fmt.Errorf("%s: shard delete status %d", host.Name, resp.StatusCode)
			}
		}
	}
	c.pgMu.Lock()
	delete(c.pgraphs, pg.id)
	c.pgMu.Unlock()
	return lastErr
}

// shardStream pulls one leg's NDJSON clique stream: the node sends only
// the cliques rooted in the leg's range [lo, hi), lexicographically
// sorted.
type shardStream struct {
	member string
	resp   *http.Response
	sc     *bufio.Scanner
	pg     *pgraph
	lo, hi int
	// head is the current (not yet consumed) line — it aliases the
	// scanner's buffer, valid until this stream's next Scan — and verts
	// its parsed vertices.
	head  []byte
	verts graph.Clique
	done  bool
}

// advance moves to the next line; afterwards done || head is valid. A
// line that is not a p-clique over [0,n) rooted in [lo, hi) is an error,
// never a panic: the bytes come from another process.
func (s *shardStream) advance() error {
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		verts, err := graph.ParseCliqueLine(line, s.verts[:0], s.pg.n)
		s.verts = verts
		switch {
		case err != nil:
		case len(verts) != s.pg.p:
			err = fmt.Errorf("clique line %q has %d vertices, want %d", line, len(verts), s.pg.p)
		case int(verts[0]) < s.lo || int(verts[0]) >= s.hi:
			err = fmt.Errorf("clique line %q is not rooted in the leg's range [%d, %d)", line, s.lo, s.hi)
		}
		if err != nil {
			return fmt.Errorf("cluster: shard %s stream: %w", s.member, err)
		}
		s.head = line
		return nil
	}
	s.done = true
	return s.sc.Err()
}

func (s *shardStream) close() {
	if s.resp != nil {
		s.resp.Body.Close()
	}
}

// lessVerts is lexicographic comparison of two vertex sequences — the
// kernel's listing order.
func lessVerts(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// scatterCliques streams the partitioned graph's p-clique listing into w.
// It opens one leg per member (failover across the shard's hosts), each
// carrying the member's root range, and copies the legs out in range
// order. The ranges are disjoint and ascending and each leg is sorted, so
// the concatenation is the sorted listing. Every line is checked to lie
// in its leg's range and to be strictly greater than the one before, so
// a shard that ignores its range (or sends out of order) fails the
// request instead of duplicating output. Output goes out on the nodes'
// policy — a graph.StreamBufferSize buffer flushed, through w's
// http.Flusher when it has one, every graph.StreamFlushEvery lines.
// Returns the line count; when a leg fails after lines went out, those
// lines are written before the error returns, so w holds a prefix of the
// listing.
func (c *Client) scatterCliques(ctx context.Context, pg *pgraph, p int, algo string, w io.Writer) (int64, error) {
	if p != pg.p {
		return 0, fmt.Errorf("%w: registered p=%d, queried p=%d", ErrPartitionMismatch, pg.p, p)
	}
	streams := make([]*shardStream, 0, len(c.cfg.Members))
	defer func() {
		for _, s := range streams {
			s.close()
		}
	}()
	for i, m := range c.cfg.Members {
		lo, hi := pg.bounds[i], pg.bounds[i+1]
		shardID := pg.shardID(m.Name)
		q := fmt.Sprintf("/v1/graphs/%s/cliques?p=%d&stream=1&lo=%d&hi=%d", shardID, p, lo, hi)
		if algo != "" {
			q += "&algo=" + algo
		}
		if algo == "" || algo == "truth" {
			// The ground-truth stream defaults to kernel visit order,
			// which depends on the (shard) graph; lexicographic order is
			// the one the shards and the single-node reference share.
			q += "&order=lex"
		}
		resp, _, err := c.readFrom(ctx, c.shardHosts(i), m.Name, http.MethodGet, q, nil)
		if err != nil {
			return 0, fmt.Errorf("cluster: shard %s: %w", shardID, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return 0, fmt.Errorf("cluster: shard %s: status %d: %s", shardID, resp.StatusCode, bytes.TrimSpace(msg))
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		s := &shardStream{member: m.Name, resp: resp, sc: sc, pg: pg, lo: lo, hi: hi}
		if err := s.advance(); err != nil {
			resp.Body.Close()
			return 0, err
		}
		streams = append(streams, s)
	}

	bw := bufio.NewWriterSize(w, graph.StreamBufferSize)
	flusher, _ := w.(http.Flusher)
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	var (
		lines int64
		prev  graph.Clique // the last clique written
	)
	for _, s := range streams {
		for !s.done {
			if lines > 0 && !lessVerts(prev, s.verts) {
				flush()
				return lines, fmt.Errorf("cluster: shard %s stream: clique %v does not follow %v: out of order",
					s.member, s.verts, prev)
			}
			prev = append(prev[:0], s.verts...)
			bw.Write(s.head)
			bw.WriteByte('\n')
			lines++
			if lines%graph.StreamFlushEvery == 0 {
				if err := flush(); err != nil {
					return lines, err
				}
			}
			if err := s.advance(); err != nil {
				flush()
				return lines, err
			}
		}
	}
	c.met.scatterRequests.Inc()
	c.met.scatterLines.Add(lines)
	return lines, bw.Flush()
}
