package cluster

// Anti-entropy repair (DESIGN.md §13): the one way a replica catches up.
// A fan-out is sent once; a replica that misses it lags, and refuses
// later batches with 409 until it is caught up. Each sweep enumerates
// the cluster's graphs and compares every replica's version digest with
// its owner's. A replica that is behind pulls its gap from the owner's
// WAL (GET /log?after=<replica seq>) and applies each batch through the
// seq-fenced replica-apply endpoint, so repair bytes grow with the
// batches missed, not with the graph. Only when the log cannot cover the
// gap — an in-memory owner, a compaction past the replica's seq — or the
// replica's state is not a prefix of the owner's history does the sweep
// fall back to full-state transfer: export the owner's graph (edge set +
// applied-batch sequence number as one consistent cut), drop the
// replica's copy, and install the export at the owner's seq.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// SeqHeader carries batch sequence numbers on the replication path; it
// mirrors the kplistd server's header of the same name (the packages do
// not import each other).
const SeqHeader = "X-Kplist-Seq"

// Digest is one node's version fingerprint for one graph, as served by
// GET /v1/graphs/{id}/digest: the applied-batch sequence number plus a
// content hash of the edge set. Owner and replica match iff both fields
// match.
type Digest struct {
	Graph string `json:"graph"`
	Seq   uint64 `json:"seq"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Hash  string `json:"hash"`
}

// RepairStats summarizes one anti-entropy sweep.
type RepairStats struct {
	// GraphsChecked counts graphs whose owner digest was fetched.
	GraphsChecked int
	// Diverged counts (replica, graph) pairs found out of sync under the
	// graph's fan-out lock, where no live batch can be in flight.
	Diverged int
	// Shipped counts log batches applied to lagging replicas.
	Shipped int
	// Repaired counts full-state transfers (export installs) that
	// completed.
	Repaired int
	// Failed counts repairs that did not complete; the next sweep finds
	// the pair out of sync again.
	Failed int
}

// RepairNow runs one synchronous anti-entropy sweep and reports what it
// found and fixed. Sweeps are serialized; the background loop and
// on-demand callers share the same mutex. Downed members are skipped —
// the first sweep after the prober flips one up catches it up.
func (c *Client) RepairNow(ctx context.Context) RepairStats {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	c.met.sweeps.Inc()
	var st RepairStats
	for _, id := range c.listAllGraphIDs(ctx) {
		set := c.ring.ReplicaSet(id, c.cfg.Replication)
		if len(set) < 2 {
			continue
		}
		owner := set[0]
		od, err := c.fetchDigest(ctx, owner, id)
		if err != nil {
			// Owner unreachable (repair would install stale state at best)
			// or the graph is mid-delete: compare again next sweep.
			continue
		}
		st.GraphsChecked++
		for _, m := range set[1:] {
			if !c.MemberUp(m.Name) {
				continue
			}
			// An unlocked screen: most pairs match and never touch the
			// fan-out lock. A mismatch may be a batch in flight, so
			// repairReplica compares again under the lock.
			if rd, err := c.fetchDigest(ctx, m, id); err == nil && rd.Seq == od.Seq && rd.Hash == od.Hash {
				continue
			}
			c.repairReplica(ctx, owner, m, id, &st)
		}
	}
	return st
}

// fetchDigest asks one member for one graph's version digest.
func (c *Client) fetchDigest(ctx context.Context, m Member, id string) (Digest, error) {
	var d Digest
	resp, err := c.forward(ctx, m, http.MethodGet, "/v1/graphs/"+id+"/digest", nil)
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return d, fmt.Errorf("cluster: digest %s from %s: HTTP %d", id, m.Name, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&d); err != nil {
		return d, err
	}
	return d, nil
}

// repairReplica heals one (replica, graph) pair under the graph's
// fan-out lock, so no live batch can land while it compares and writes.
// A replica behind its owner is caught up from the owner's log; a
// replica without the graph, ahead of its owner, at the owner's seq with
// another hash, or whose gap the log no longer covers gets the owner's
// export installed — as does one whose catch-up ends on a hash that is
// not the owner's.
func (c *Client) repairReplica(ctx context.Context, owner, m Member, id string, st *RepairStats) {
	defer c.lockGraph(id)()
	od, err := c.fetchDigest(ctx, owner, id)
	if err != nil {
		return // deleted, or the owner went away: next sweep
	}
	rd, err := c.fetchDigest(ctx, m, id)
	if err == nil && rd.Seq == od.Seq && rd.Hash == od.Hash {
		return // the screen saw a batch in flight
	}
	st.Diverged++
	c.met.divergence.Inc()
	if err == nil && rd.Seq < od.Seq {
		n, err := c.catchUp(ctx, owner, m, id, rd.Seq)
		st.Shipped += n
		if err == nil {
			if rd, err := c.fetchDigest(ctx, m, id); err == nil && rd.Seq == od.Seq && rd.Hash == od.Hash {
				return
			}
		} else if !errors.Is(err, errLogGone) {
			c.met.repairFailures.Inc()
			st.Failed++
			return
		}
	}
	if err := c.install(ctx, owner, m, id); err != nil {
		c.met.repairFailures.Inc()
		st.Failed++
		return
	}
	c.met.repairs.Inc()
	st.Repaired++
}

// errLogGone reports an owner whose log no longer covers the replica's
// seq (HTTP 410).
var errLogGone = errors.New("cluster: owner log does not cover the gap")

// logBatch is one entry of the owner's /log: a PATCH body plus its seq.
type logBatch struct {
	Seq       uint64          `json:"seq"`
	Mutations json.RawMessage `json:"mutations"`
}

// catchUp ships the owner's logged batches past after to replica m, in
// order, each through the seq-fenced replica-apply endpoint. It returns
// how many the replica acknowledged.
func (c *Client) catchUp(ctx context.Context, owner, m Member, id string, after uint64) (int, error) {
	resp, err := c.forward(ctx, owner, http.MethodGet, "/v1/graphs/"+id+"/log?after="+strconv.FormatUint(after, 10), nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		if resp.StatusCode == http.StatusGone {
			return 0, errLogGone
		}
		return 0, fmt.Errorf("cluster: log %s from %s: HTTP %d", id, owner.Name, resp.StatusCode)
	}
	var tail struct {
		Batches []logBatch `json:"batches"`
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&tail)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	for i, b := range tail.Batches {
		body, err := json.Marshal(b)
		if err != nil {
			return i, err
		}
		rr, err := c.forward(ctx, m, http.MethodPatch, "/v1/graphs/"+id+"/replica", body,
			[2]string{SeqHeader, strconv.FormatUint(b.Seq, 10)})
		if err != nil {
			return i, err
		}
		drain(rr)
		if rr.StatusCode/100 != 2 {
			return i, fmt.Errorf("cluster: catch-up %s seq %d on %s: HTTP %d", id, b.Seq, m.Name, rr.StatusCode)
		}
		c.met.logBatchesShipped.Inc()
	}
	return len(tail.Batches), nil
}

// install heals one (replica, graph) pair by full-state transfer; the
// caller holds the graph's fan-out lock, so no batch can straddle the
// export/install boundary.
func (c *Client) install(ctx context.Context, owner, m Member, id string) error {
	resp, err := c.forward(ctx, owner, http.MethodGet, "/v1/graphs/"+id+"/export", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		return fmt.Errorf("cluster: export %s from %s: HTTP %d", id, owner.Name, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	// Drop the replica's copy first: the export document registers a fresh
	// graph, it does not overwrite one. A 404 just means the replica never
	// had the graph (missed registration).
	dr, err := c.forward(ctx, m, http.MethodDelete, "/v1/graphs/"+id, nil)
	if err != nil {
		return err
	}
	drain(dr)
	if dr.StatusCode/100 != 2 && dr.StatusCode != http.StatusNotFound {
		return fmt.Errorf("cluster: repair delete %s on %s: HTTP %d", id, m.Name, dr.StatusCode)
	}
	ir, err := c.forward(ctx, m, http.MethodPost, "/v1/graphs", body)
	if err != nil {
		return err
	}
	drain(ir)
	if ir.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: repair install %s on %s: HTTP %d", id, m.Name, ir.StatusCode)
	}
	return nil
}

// listAllGraphIDs unions every reachable member's graph listing,
// skipping scatter-partition shards (each shard is member-local state
// healed by re-partitioning, not replication).
func (c *Client) listAllGraphIDs(ctx context.Context) []string {
	type nodeList struct {
		Graphs []struct {
			ID string `json:"id"`
		} `json:"graphs"`
	}
	seen := make(map[string]bool)
	for _, m := range c.cfg.Members {
		if !c.MemberUp(m.Name) {
			continue
		}
		resp, err := c.forward(ctx, m, http.MethodGet, "/v1/graphs", nil)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			drain(resp)
			continue
		}
		var nl nodeList
		err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&nl)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, g := range nl.Graphs {
			if g.ID == "" || strings.Contains(g.ID, ShardIDSuffix) {
				continue
			}
			seen[g.ID] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return ids
}

// startRepairLoop launches the background sweep loop (no-op when the
// interval is negative). Each pass sleeps a jittered interval so a fleet
// of gateways does not sweep in lockstep.
func (c *Client) startRepairLoop() {
	if c.repairInterval < 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.repairCancel = cancel
	c.repairDone.Add(1)
	go func() {
		defer c.repairDone.Done()
		for {
			t := time.NewTimer(c.jittered(c.repairInterval))
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			c.RepairNow(ctx)
		}
	}()
}
