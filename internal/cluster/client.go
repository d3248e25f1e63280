package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ForwardHeader marks intra-cluster traffic. The gateway (and any
// embedded Client) sets it on every forwarded request; kplistd nodes in
// cluster mode refuse unmarked /v1 requests for graphs they do not own
// (421 + owner hint), so a client talking to the wrong node is told where
// to go instead of silently reading a stale replica.
const ForwardHeader = "X-Kplist-Cluster"

// ErrNoQuorum reports a write whose owner could not be reached.
var ErrNoQuorum = errors.New("cluster: graph owner unreachable")

// ClientOptions tune a Client. The zero value is usable.
type ClientOptions struct {
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
	// RetryBackoff is the pause before each failover attempt beyond the
	// first (default 25ms, scaled linearly by attempt number and
	// jittered).
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe period started by Start
	// (default 2s, jittered per pass).
	ProbeInterval time.Duration
	// JitterSeed seeds the deterministic jitter applied to probe
	// intervals and failover backoff (default 1). Seeding keeps test runs
	// reproducible; distinct seeds keep a fleet of gateways from retrying
	// in lockstep after a member recovers.
	JitterSeed int64
	// RepairInterval is the anti-entropy sweep period started by Start
	// (default 5s; negative disables the background loop — RepairNow
	// still works on demand).
	RepairInterval time.Duration
}

// Client is the embeddable routing layer: it knows the ring, tracks
// member health, forwards requests to the owning node with read failover
// onto replicas, fans mutation batches out to replicas, and runs
// scatter–gather listing for partitioned graphs. The kplistgw daemon is a
// thin HTTP front over exactly this type.
type Client struct {
	cfg     Config
	ring    *Ring
	hc      *http.Client
	met     *Metrics
	backoff time.Duration
	pr      *prober

	health map[string]*memberHealth // fixed key set; values are atomic

	pgMu    sync.RWMutex
	pgraphs map[string]*pgraph

	patchLocks sync.Map // graph ID → *sync.Mutex (fan-out ordering)

	// The sweeper fields drive the background anti-entropy loop.
	repairInterval time.Duration
	repairCancel   context.CancelFunc
	repairDone     sync.WaitGroup
	sweepMu        sync.Mutex // one sweep at a time

	jmu  sync.Mutex
	jrng *mrand.Rand
}

// NewClient builds a Client over the membership. Call Start to begin
// health probing (optional — without it, health state is driven purely
// by request outcomes) and Close when done.
func NewClient(cfg Config, opts ClientOptions) (*Client, error) {
	ring, err := NewRing(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     ring.Config(),
		ring:    ring,
		hc:      opts.HTTPClient,
		backoff: opts.RetryBackoff,
		health:  make(map[string]*memberHealth),
		pgraphs: make(map[string]*pgraph),
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	if c.backoff <= 0 {
		c.backoff = 25 * time.Millisecond
	}
	for _, m := range c.cfg.Members {
		c.health[m.Name] = newMemberHealth()
	}
	interval := opts.ProbeInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.pr = &prober{c: c, interval: interval}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	c.jrng = mrand.New(mrand.NewSource(seed))
	c.repairInterval = opts.RepairInterval
	if c.repairInterval == 0 {
		c.repairInterval = 5 * time.Second
	}
	c.met = newMetrics(c)
	return c, nil
}

// Start launches the background health prober and, unless disabled, the
// anti-entropy repair loop.
func (c *Client) Start() {
	c.pr.start()
	c.startRepairLoop()
}

// Close stops the prober and the repair loop. The Client performs no
// further I/O of its own.
func (c *Client) Close() {
	c.pr.stop()
	if c.repairCancel != nil {
		c.repairCancel()
		c.repairDone.Wait()
	}
}

// jittered returns a duration in [d/2, 3d/2) drawn from the client's
// seeded RNG: deterministic for a fixed seed, desynchronized across
// differently-seeded gateways.
func (c *Client) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	c.jmu.Lock()
	f := 0.5 + c.jrng.Float64()
	c.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// Ring exposes placement (tests and the gateway's ring-state gauges).
func (c *Client) Ring() *Ring { return c.ring }

// Metrics exposes the gateway-side observability store.
func (c *Client) Metrics() *Metrics { return c.met }

func (c *Client) healthOf(name string) *memberHealth { return c.health[name] }

// MemberUp reports the current health verdict for a member name.
func (c *Client) MemberUp(name string) bool {
	h, ok := c.health[name]
	return ok && h.up.Load()
}

// NewGraphID mints a cluster-level graph ID: placement hashes it, every
// node registers under it, and it can never collide with a node's own
// auto-assigned "g<n>" namespace.
func NewGraphID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is not a recoverable condition
	}
	return "c" + hex.EncodeToString(b[:])
}

// forward sends one request to one member, recording metrics and health.
// A transport error or 5xx marks the member down; any response marks it
// up (a 4xx is the member answering, not dying). Optional extra headers
// (name, value pairs) ride along — the replication path tags batches
// with their sequence number this way.
func (c *Client) forward(ctx context.Context, m Member, method, pathAndQuery string, body []byte, extra ...[2]string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.Addr+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(ForwardHeader, "1")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, kv := range extra {
		req.Header.Set(kv[0], kv[1])
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.met.record(m.Name, 0, time.Since(start))
		c.healthOf(m.Name).markDown()
		return nil, err
	}
	c.met.record(m.Name, resp.StatusCode, time.Since(start))
	if resp.StatusCode >= http.StatusInternalServerError {
		c.healthOf(m.Name).markDown()
	} else {
		c.healthOf(m.Name).markUp()
	}
	return resp, nil
}

// orderByHealth stably moves down-marked members behind up-marked ones:
// failover prefers live replicas but never abandons a member outright —
// if everyone is marked down, the original order is the plan.
func (c *Client) orderByHealth(ms []Member) []Member {
	out := make([]Member, 0, len(ms))
	for _, m := range ms {
		if c.MemberUp(m.Name) {
			out = append(out, m)
		}
	}
	for _, m := range ms {
		if !c.MemberUp(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// Candidates returns the graph's placement (owner first) in failover
// order: the ring's replica set, healthy members first.
func (c *Client) Candidates(id string) []Member {
	return c.orderByHealth(c.ring.ReplicaSet(id, c.cfg.Replication))
}

// retryable reports whether a response status should push a read onto
// the next candidate: server-side failures always; 429 because the
// member shed the request under load and a replica may have headroom;
// 404 only because a lagging replica may not have seen the registration
// yet (the last 404 is returned if every candidate agrees).
func retryable(status int) bool {
	return status >= http.StatusInternalServerError ||
		status == http.StatusNotFound ||
		status == http.StatusTooManyRequests
}

// maxRetryAfterWait caps how long the client honors a Retry-After hint:
// replicas exist precisely so a read need not wait out one member's
// queue, so the hint bounds politeness, not availability.
const maxRetryAfterWait = 2 * time.Second

// retryAfterHint extracts a shed member's Retry-After (whole seconds) on
// 429/503, capped at maxRetryAfterWait; 0 means no hint.
func retryAfterHint(resp *http.Response) time.Duration {
	if resp == nil ||
		(resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfterWait {
		d = maxRetryAfterWait
	}
	return d
}

// doRead forwards a read to the graph's owner, failing over to replicas
// (with backoff) on transport errors, 5xx, or 404. It returns the first
// acceptable response — caller closes its body — plus the member that
// answered. When every candidate fails it returns the last response (if
// any) or the last error.
func (c *Client) doRead(ctx context.Context, id, method, pathAndQuery string, body []byte) (*http.Response, Member, error) {
	set := c.ring.ReplicaSet(id, c.cfg.Replication)
	return c.readFrom(ctx, set, set[0].Name, method, pathAndQuery, body)
}

// readFrom is doRead over an explicit candidate set (owner-name first in
// preference; healthy candidates are tried before down-marked ones).
// Reads answered by a member other than `preferred` count as failovers.
// Backoff between candidates is jittered (so a fleet of gateways does
// not retry in lockstep) and stretched to honor a shed member's
// Retry-After hint. A first 404 gets one short same-member re-probe
// before failing over: a lagging replica often lands the registration
// within a backoff, and the retry is counted separately from real
// not-found.
func (c *Client) readFrom(ctx context.Context, set []Member, preferred, method, pathAndQuery string, body []byte) (*http.Response, Member, error) {
	cands := c.orderByHealth(set)
	var lastResp *http.Response
	var lastMember Member
	var lastErr error
	var hinted time.Duration // Retry-After carried from the previous attempt
	reprobed := false
	for i, m := range cands {
		if i > 0 {
			c.met.retries.Inc()
			pause := c.jittered(time.Duration(i) * c.backoff)
			if hinted > pause {
				pause = hinted
			}
			select {
			case <-ctx.Done():
				if lastResp != nil {
					return lastResp, lastMember, nil
				}
				return nil, Member{}, ctx.Err()
			case <-time.After(pause):
			}
		}
		hinted = 0
		resp, err := c.forward(ctx, m, method, pathAndQuery, body)
		if err == nil && resp.StatusCode == http.StatusNotFound && !reprobed && method == http.MethodGet {
			// Lagging-replica window: re-ask the same member once after a
			// short pause instead of failing the read over immediately.
			reprobed = true
			c.met.notFoundReprobes.Inc()
			drain(resp)
			select {
			case <-ctx.Done():
				if lastResp != nil {
					return lastResp, lastMember, nil
				}
				return nil, Member{}, ctx.Err()
			case <-time.After(c.jittered(c.backoff)):
			}
			resp, err = c.forward(ctx, m, method, pathAndQuery, body)
			if err == nil && resp.StatusCode != http.StatusNotFound {
				c.met.notFoundRecovered.Inc()
			}
		}
		if err != nil {
			lastErr = err
			continue
		}
		if retryable(resp.StatusCode) && i+1 < len(cands) {
			hinted = retryAfterHint(resp)
			if lastResp != nil {
				lastResp.Body.Close()
			}
			lastResp, lastMember = resp, m
			continue
		}
		if lastResp != nil {
			lastResp.Body.Close()
		}
		if m.Name != preferred {
			c.met.failoverReads.Inc()
		}
		return resp, m, nil
	}
	if lastResp != nil {
		if lastMember.Name != preferred {
			c.met.failoverReads.Inc()
		}
		return lastResp, lastMember, nil
	}
	c.met.unroutable.Inc()
	return nil, Member{}, fmt.Errorf("cluster: no member of %d answered %s %s: %w",
		len(cands), method, pathAndQuery, lastErr)
}

// drain reads and closes a fan-out response body.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// RegisterRaw registers body (which must already carry the cluster graph
// ID in its "id" field) on the graph's owner — which must succeed — then
// best-effort on its replicas. It returns the owner's response (caller
// closes) and the number of replicas that acknowledged.
func (c *Client) RegisterRaw(ctx context.Context, id string, body []byte) (*http.Response, int, error) {
	set := c.ring.ReplicaSet(id, c.cfg.Replication)
	resp, err := c.forward(ctx, set[0], http.MethodPost, "/v1/graphs", body)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoQuorum, set[0].Name, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp, 0, nil // caller relays the owner's refusal verbatim
	}
	acks := 0
	for _, m := range set[1:] {
		rr, err := c.forward(ctx, m, http.MethodPost, "/v1/graphs", body)
		if err != nil || rr.StatusCode/100 != 2 {
			// A replica that missed the registration answers the sweep's
			// digest with 404, and the sweep installs the owner's export.
			c.met.replicaFailures.Inc()
			if rr != nil {
				drain(rr)
			}
			continue
		}
		drain(rr)
		c.met.replicaAcks.Inc()
		acks++
	}
	return resp, acks, nil
}

// PatchRaw applies one mutation batch: acknowledged by the owner (which
// appends + fsyncs its WAL before answering), then fanned out
// synchronously but best-effort to every replica through the
// replica-apply endpoint, tagged with the owner-assigned sequence
// number. A replica the fan-out misses lags: it refuses later batches
// with 409 (a seq gap) until the anti-entropy sweep ships it the missing
// batches from the owner's log. Either way the batch is committed — the
// owner acknowledged it. Per-graph fan-out is serialized so replicas
// apply batches in owner order. An owner that sheds the PATCH with
// 429/503 and a Retry-After hint is retried once after the hinted wait
// before the write fails.
func (c *Client) PatchRaw(ctx context.Context, id string, body []byte) (*http.Response, int, error) {
	defer c.lockGraph(id)()

	set := c.ring.ReplicaSet(id, c.cfg.Replication)
	resp, err := c.forward(ctx, set[0], http.MethodPatch, "/v1/graphs/"+id+"/edges", body)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoQuorum, set[0].Name, err)
	}
	if d := retryAfterHint(resp); d > 0 {
		// The owner shed under load and told us when to come back: writes
		// have no replica to fail over to, so waiting is the only move.
		drain(resp)
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(d):
		}
		c.met.retries.Inc()
		resp, err = c.forward(ctx, set[0], http.MethodPatch, "/v1/graphs/"+id+"/edges", body)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s: %v", ErrNoQuorum, set[0].Name, err)
		}
	}
	if resp.StatusCode/100 != 2 {
		return resp, 0, nil
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(SeqHeader), 10, 64)
	if seq == 0 {
		// The owner has never applied an effective batch, so this one was
		// a no-op: every replica already holds its (unchanged) state, and
		// a replica would refuse seq 0 on its ordering fence anyway.
		return resp, len(set) - 1, nil
	}
	acks := 0
	for _, m := range set[1:] {
		if c.replicate(ctx, m, id, seq, body) {
			acks++
		}
	}
	return resp, acks, nil
}

// replicate sends one sequence-tagged batch to one replica, once, if the
// member is up. Returns true when the replica acknowledged; a miss only
// counts as lag — the anti-entropy sweep catches the replica up.
func (c *Client) replicate(ctx context.Context, m Member, id string, seq uint64, body []byte) bool {
	if c.MemberUp(m.Name) {
		rr, err := c.forward(ctx, m, http.MethodPatch, "/v1/graphs/"+id+"/replica", body,
			[2]string{SeqHeader, strconv.FormatUint(seq, 10)})
		if err == nil {
			drain(rr)
			if rr.StatusCode/100 == 2 {
				c.met.replicaAcks.Inc()
				return true
			}
		}
	}
	c.met.replicaFailures.Inc()
	return false
}

// lockGraph takes the graph's fan-out lock and returns the unlock. Every
// write to a graph's replicas holds it — fan-out, catch-up, install and
// delete — so replicas see them in one order.
func (c *Client) lockGraph(id string) func() {
	mu, _ := c.patchLocks.LoadOrStore(id, &sync.Mutex{})
	m := mu.(*sync.Mutex)
	m.Lock()
	return m.Unlock
}

// DeleteRaw removes the graph from every member of its replica set. It
// succeeds when at least one member confirmed the delete and no reachable
// member failed it for a reason other than "already gone".
func (c *Client) DeleteRaw(ctx context.Context, id string) (int, error) {
	// Under the fan-out lock, a repair's export → DELETE → install cannot
	// straddle the delete and bring the graph back on a replica.
	defer c.lockGraph(id)()
	deleted := 0
	var lastErr error
	for _, m := range c.ring.ReplicaSet(id, c.cfg.Replication) {
		resp, err := c.forward(ctx, m, http.MethodDelete, "/v1/graphs/"+id, nil)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", m.Name, err)
			continue
		}
		if resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusNotFound {
			if resp.StatusCode/100 == 2 {
				deleted++
			}
			drain(resp)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		lastErr = fmt.Errorf("%s: status %d: %s", m.Name, resp.StatusCode, body)
	}
	if deleted == 0 && lastErr != nil {
		return 0, lastErr
	}
	return deleted, lastErr
}

// --- typed convenience surface (the embeddable in-process client) ---

// GraphMeta is the wire-level description the cluster surfaces for a
// registered graph: the node-side info plus placement.
type GraphMeta struct {
	ID          string   `json:"id"`
	Name        string   `json:"name,omitempty"`
	N           int      `json:"n"`
	M           int      `json:"m"`
	Family      string   `json:"family,omitempty"`
	Planted     int      `json:"planted,omitempty"`
	Owner       string   `json:"owner,omitempty"`
	Replicas    []string `json:"replicas,omitempty"`
	ReplicaAcks int      `json:"replicaAcks,omitempty"`
	Partitioned bool     `json:"partitioned,omitempty"`
	Shards      int      `json:"shards,omitempty"`
	P           int      `json:"p,omitempty"`
}

func decodeMeta(resp *http.Response) (GraphMeta, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return GraphMeta{}, err
	}
	if resp.StatusCode/100 != 2 {
		return GraphMeta{}, fmt.Errorf("cluster: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var meta GraphMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		return GraphMeta{}, err
	}
	return meta, nil
}

// Register registers a graph cluster-wide from a kplistd register body
// (edges or workload spec) and returns its metadata with placement.
func (c *Client) Register(ctx context.Context, body map[string]any) (GraphMeta, error) {
	id := NewGraphID()
	set := c.ring.ReplicaSet(id, c.cfg.Replication)
	wire := make(map[string]any, len(body)+1)
	for k, v := range body {
		wire[k] = v
	}
	wire["id"] = id
	buf, err := json.Marshal(wire)
	if err != nil {
		return GraphMeta{}, err
	}
	resp, acks, err := c.RegisterRaw(ctx, id, buf)
	if err != nil {
		return GraphMeta{}, err
	}
	meta, err := decodeMeta(resp)
	if err != nil {
		return GraphMeta{}, err
	}
	meta.Owner = set[0].Name
	for _, m := range set[1:] {
		meta.Replicas = append(meta.Replicas, m.Name)
	}
	meta.ReplicaAcks = acks
	return meta, nil
}

// Patch applies a mutation batch (kplistd PATCH /edges wire form) through
// the owner with replica fan-out, returning the owner's decoded response.
func (c *Client) Patch(ctx context.Context, id string, body map[string]any) (map[string]any, int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	resp, acks, err := c.PatchRaw(ctx, id, buf)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, acks, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, acks, fmt.Errorf("cluster: patch %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, acks, err
	}
	return out, acks, nil
}

// Delete removes a graph cluster-wide (partitioned graphs drop all their
// shard graphs).
func (c *Client) Delete(ctx context.Context, id string) error {
	if pg := c.partitionedGraph(id); pg != nil {
		return c.deletePartitioned(ctx, pg)
	}
	_, err := c.DeleteRaw(ctx, id)
	return err
}

// StreamCliques streams the graph's NDJSON clique listing into w:
// owner-routed (with replica failover) for plain graphs, scatter–gather
// concatenated for partitioned ones. The bytes written are identical to a
// single-node kplistd serving the same graph with the same query.
func (c *Client) StreamCliques(ctx context.Context, id string, p int, algo string, w io.Writer) error {
	if pg := c.partitionedGraph(id); pg != nil {
		_, err := c.scatterCliques(ctx, pg, p, algo, w)
		return err
	}
	q := fmt.Sprintf("/v1/graphs/%s/cliques?p=%d&stream=1", id, p)
	if algo != "" {
		q += "&algo=" + algo
	}
	resp, _, err := c.doRead(ctx, id, http.MethodGet, q, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: cliques %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(body))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
