package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"kplist"
	"kplist/internal/graph"
	"kplist/internal/partition"
)

// Partitioned graphs (POST /v1/graphs?partitioned=1&p=<p>) split one
// logical graph's edges across all shards instead of replicating it
// whole. Registration fixes the clique size p; vertices are assigned to
// T = len(members) parts by the paper's random partition (Lemma 2.7,
// seeded, so re-registration reproduces it); each possible clique
// "signature" — the sorted multiset of its vertices' parts — is owned by
// the ring member that owns the key id+"/tuple/"+sig. A member's shard
// subgraph carries exactly the edges whose part pair occurs inside at
// least one of its signatures, so every clique with an owned signature is
// fully present on its owner. Listing scatters to the shards that own a
// signature; each leg carries its shard's partition.Filter, so the node
// streams only the cliques whose signature that shard owns, sorted
// lexicographically — the shard outputs are disjoint — and the gateway
// k-way-merges them, which reproduces the single-node NDJSON stream byte
// for byte. See DESIGN.md §12.
//
// ErrPartitionMismatch reports a listing query whose p differs from the
// p the partitioned graph was registered with.
var ErrPartitionMismatch = errors.New("cluster: query p differs from the partitioned registration")

// ErrPartitionedMutation reports a PATCH / POST query against a
// partitioned graph; only listing is supported in partitioned mode.
var ErrPartitionedMutation = errors.New("cluster: partitioned graphs are immutable (listing only)")

// pgraph is the gateway-side state of one partitioned graph.
type pgraph struct {
	id     string
	name   string
	family string
	p      int // clique size fixed at registration
	n, m   int
	parts  int // T = number of members at registration
	// shardID maps a member name to its shard graph's cluster-wide ID.
	shardID map[string]string
	// shardM maps a member name to its shard subgraph's edge count.
	shardM map[string]int
	// filter maps a member that owns at least one signature to the
	// filter its scatter leg carries. The other members' shards are
	// edgeless and get no leg.
	filter map[string]partition.Filter
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
		Partitioned: true, Shards: len(pg.shardID), P: pg.p, Parts: pg.parts,
	}
}

// ShardIDSuffix marks shard graph IDs ("<cluster id>.s.<member>"). The
// gateway hides graphs carrying it from cluster-level listings.
const ShardIDSuffix = ".s."

// sigKey renders a sorted part multiset as "a.b.c".
func sigKey(sig []int) string {
	var b []byte
	for i, s := range sig {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return string(b)
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
// size p: it materializes the edges (generating the workload locally when
// the body carries a spec), partitions the vertices, assigns signatures
// to members through the ring, and registers each member's shard subgraph
// on that member (replicated to its ring successors).
func (c *Client) RegisterPartitioned(ctx context.Context, body []byte, p int) (GraphMeta, error) {
	return c.registerPartitioned(ctx, NewGraphID(), body, p)
}

// signatureOwners assigns each signature to the ring member that owns the
// key id+"/tuple/"+sig: owner[rank] is that member's index in the
// cluster config's member list.
func (c *Client) signatureOwners(id string, sigs [][]int) []int32 {
	memberIndex := make(map[string]int32, len(c.cfg.Members))
	for i, m := range c.cfg.Members {
		memberIndex[m.Name] = int32(i)
	}
	owner := make([]int32, len(sigs))
	for rank, sig := range sigs {
		owner[rank] = memberIndex[c.ring.Owner(id+"/tuple/"+sigKey(sig)).Name]
	}
	return owner
}

func (c *Client) registerPartitioned(ctx context.Context, id string, body []byte, p int) (GraphMeta, error) {
	if p < 2 {
		return GraphMeta{}, fmt.Errorf("cluster: partitioned registration needs p >= 2, got %d", p)
	}
	var req registerWire
	if err := json.Unmarshal(body, &req); err != nil {
		return GraphMeta{}, fmt.Errorf("cluster: bad register body: %w", err)
	}
	n, edges, family := req.N, make([]edgePair, 0, len(req.Edges)), ""
	name := req.Name
	if req.Workload != nil {
		inst, err := kplist.GenerateWorkload(*req.Workload)
		if err != nil {
			return GraphMeta{}, err
		}
		n = inst.G.N()
		family = inst.Spec.Family
		for _, e := range inst.G.Edges() {
			edges = append(edges, edgePair{e.U, e.V})
		}
	} else {
		for _, e := range req.Edges {
			edges = append(edges, edgePair{e[0], e[1]})
		}
	}
	if n <= 0 {
		return GraphMeta{}, errors.New("cluster: partitioned registration needs n > 0")
	}

	t := len(c.cfg.Members)
	// Seed the partition from the cluster seed and the graph ID so the
	// split is reproducible but distinct per graph. The seed travels in
	// every leg's filter, and the node redraws the same partition from it.
	h := fnv.New64a()
	h.Write([]byte(id))
	seed := c.cfg.Seed ^ int64(h.Sum64())
	part := partition.Random(n, t, rand.New(rand.NewSource(seed)))

	pg := &pgraph{
		id: id, name: name, family: family, p: p, n: n, m: len(edges),
		parts:   t,
		shardID: make(map[string]string, t),
		shardM:  make(map[string]int, t),
		filter:  make(map[string]partition.Filter, t),
	}

	// Assign every signature to a ring member, and derive each member's
	// allowed part-pair matrix: pair (a,b), a≠b, is allowed when some
	// owned signature contains both parts; (a,a) needs multiplicity ≥ 2.
	sigs := partition.Signatures(t, p)
	owned := make([][]bool, t)
	allowed := make([][]bool, t)
	for i := range c.cfg.Members {
		owned[i] = make([]bool, len(sigs))
		allowed[i] = make([]bool, partition.NumPairs(t))
	}
	for rank, owner := range c.signatureOwners(id, sigs) {
		owned[owner][rank] = true
		sig := sigs[rank]
		for i := 0; i < len(sig); i++ {
			for j := i + 1; j < len(sig); j++ {
				allowed[owner][partition.PairIndex(sig[i], sig[j], t)] = true
			}
		}
	}
	for i, m := range c.cfg.Members {
		if slices.Contains(owned[i], true) {
			pg.filter[m.Name] = partition.NewFilter(seed, t, owned[i])
		}
	}

	// Split the edges: an edge goes to every member whose allowed matrix
	// admits its part pair (members can overlap — the nodes' signature
	// filters restore disjointness of the clique streams).
	shardEdges := make([][]edgePair, t)
	for _, e := range edges {
		pi := partition.PairIndex(int(part.PartOf[e[0]]), int(part.PartOf[e[1]]), t)
		for i := range c.cfg.Members {
			if allowed[i][pi] {
				shardEdges[i] = append(shardEdges[i], e)
			}
		}
	}

	// Register each shard subgraph pinned to its member (first), then
	// best-effort on the member's ring successors for failover. A member
	// that owns no signature still gets its edgeless shard, so every
	// member answers for its shard ID; scatters just never read it.
	for mi, m := range c.cfg.Members {
		shardID := id + ShardIDSuffix + m.Name
		wire := registerWire{
			ID:    shardID,
			Name:  name + "/shard/" + m.Name,
			N:     n,
			Edges: make([][2]int32, 0, len(shardEdges[mi])),
		}
		for _, e := range shardEdges[mi] {
			wire.Edges = append(wire.Edges, [2]int32{e[0], e[1]})
		}
		buf, err := json.Marshal(wire)
		if err != nil {
			return GraphMeta{}, err
		}
		placement := c.ring.SuccessorSet(m.Name, c.cfg.Replication)
		for i, host := range placement {
			resp, err := c.forward(ctx, host, http.MethodPost, "/v1/graphs", buf)
			if i == 0 {
				if err != nil {
					return GraphMeta{}, fmt.Errorf("%w: shard %s: %v", ErrNoQuorum, shardID, err)
				}
				if resp.StatusCode/100 != 2 {
					msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
					return GraphMeta{}, fmt.Errorf("cluster: shard %s register: status %d: %s",
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
		pg.shardID[m.Name] = shardID
		pg.shardM[m.Name] = len(shardEdges[mi])
	}

	c.pgMu.Lock()
	c.pgraphs[id] = pg
	c.pgMu.Unlock()
	return pg.meta(), nil
}

func (c *Client) deletePartitioned(ctx context.Context, pg *pgraph) error {
	var lastErr error
	for member, shardID := range pg.shardID {
		for _, host := range c.ring.SuccessorSet(member, c.cfg.Replication) {
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

type edgePair = [2]int32

// shardStream pulls one shard's NDJSON clique stream: the node has
// already filtered it down to the cliques whose signature the shard owns,
// and sends them lexicographically sorted (the kernel's order).
type shardStream struct {
	member string
	resp   *http.Response
	sc     *bufio.Scanner
	pg     *pgraph
	// head is the current (not yet consumed) line — it aliases the
	// scanner's buffer, valid until this stream's next Scan — and verts
	// its parsed vertices.
	head  []byte
	verts graph.Clique
	done  bool
}

// advance moves to the next line; afterwards done || head is valid. A
// line that is not a p-clique over [0,n) is an error, never a panic: the
// bytes come from another process.
func (s *shardStream) advance() error {
	for s.sc.Scan() {
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		verts, err := graph.ParseCliqueLine(line, s.verts[:0], s.pg.n)
		s.verts = verts
		if err == nil && len(verts) != s.pg.p {
			err = fmt.Errorf("clique line %q has %d vertices, want %d", line, len(verts), s.pg.p)
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

// scatterCliques streams the partitioned graph's p-clique listing into w:
// one node-filtered stream per shard that owns a signature (failover
// across the shard's successor placement), k-way merged
// lexicographically. The merge checks that every line it writes is
// strictly greater than the one before, so a shard that ignores its
// filter (or sends out of order) fails the request instead of duplicating
// output. Output goes out on the nodes' policy — a graph.StreamBufferSize
// buffer flushed, through w's http.Flusher when it has one, every
// graph.StreamFlushEvery lines. Returns the merged line count; when a
// shard stream fails after lines were merged, those lines are written out
// before the error returns, so w holds a prefix of the listing.
func (c *Client) scatterCliques(ctx context.Context, pg *pgraph, p int, algo string, w io.Writer) (int64, error) {
	if p != pg.p {
		return 0, fmt.Errorf("%w: registered p=%d, queried p=%d", ErrPartitionMismatch, pg.p, p)
	}
	streams := make([]*shardStream, 0, len(pg.filter))
	defer func() {
		for _, s := range streams {
			s.close()
		}
	}()
	for _, m := range c.cfg.Members {
		f, ok := pg.filter[m.Name]
		if !ok {
			continue
		}
		shardID := pg.shardID[m.Name]
		q := fmt.Sprintf("/v1/graphs/%s/cliques?p=%d&stream=1&%s=%d&%s=%d&%s=%s", shardID, p,
			partition.FilterSeedParam, f.Seed, partition.FilterPartsParam, f.T, partition.FilterOwnedParam, f.Owned)
		if algo != "" {
			q += "&algo=" + algo
		}
		if algo == "" || algo == "truth" {
			// The ground-truth stream defaults to kernel visit order,
			// which depends on the (shard) graph; lexicographic order is
			// the one the shards and the single-node reference share.
			q += "&order=lex"
		}
		resp, _, err := c.readFrom(ctx, c.ring.SuccessorSet(m.Name, c.cfg.Replication), m.Name, http.MethodGet, q, nil)
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
		s := &shardStream{member: m.Name, resp: resp, sc: sc, pg: pg}
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
		prev  graph.Clique // the last merged clique
	)
	for {
		var best *shardStream
		for _, s := range streams {
			if s.done {
				continue
			}
			if best == nil || lessVerts(s.verts, best.verts) {
				best = s
			}
		}
		if best == nil {
			break
		}
		if lines > 0 && !lessVerts(prev, best.verts) {
			flush()
			return lines, fmt.Errorf("cluster: shard %s stream: clique %v does not follow %v: shard streams overlap or are out of order",
				best.member, best.verts, prev)
		}
		prev = append(prev[:0], best.verts...)
		bw.Write(best.head)
		bw.WriteByte('\n')
		lines++
		if lines%graph.StreamFlushEvery == 0 {
			if err := flush(); err != nil {
				return lines, err
			}
		}
		if err := best.advance(); err != nil {
			flush()
			return lines, err
		}
	}
	c.met.scatterRequests.Inc()
	c.met.scatterLines.Add(lines)
	return lines, bw.Flush()
}
