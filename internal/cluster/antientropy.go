package cluster

// Anti-entropy repair (DESIGN.md §13): the background arm of
// self-healing replication. Hinted handoff catches replicas that miss a
// fan-out while briefly down; everything it cannot catch — overflowed
// hint queues, refused applies, failed registrations, divergence with no
// recorded cause — lands here. Each sweep drains outstanding hints,
// enumerates the cluster's graphs, compares every replica's version
// digest against its owner's, and heals mismatches by full-state
// transfer: export the owner's graph (edge set + applied-batch sequence
// number as one consistent cut), drop the replica's stale copy, and
// install the export. The installed replica adopts the owner's sequence
// position, so hinted replay and live fan-out resume seamlessly after
// the transfer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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
	// Diverged counts (replica, graph) pairs found out of sync — dirty
	// marks plus fresh digest mismatches.
	Diverged int
	// Repaired counts full-state transfers that completed.
	Repaired int
	// Failed counts repair attempts that did not complete (the pair stays
	// dirty for the next sweep).
	Failed int
}

// RepairNow runs one synchronous anti-entropy sweep and reports what it
// found and fixed. Sweeps are serialized; the background loop and
// on-demand callers share the same mutex. Downed members are skipped —
// their hint queues and dirty marks wait for the prober to flip them up.
func (c *Client) RepairNow(ctx context.Context) RepairStats {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	c.met.sweeps.Inc()
	// Drain hint queues first: a queued batch is cheaper than a full-state
	// transfer, and a replica that is merely behind on replay would read
	// as diverged below.
	for _, m := range c.cfg.Members {
		if c.MemberUp(m.Name) && c.hints.depth(m.Name) > 0 {
			c.replayHints(m.Name)
		}
	}
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
			if c.hints.pendingGraph(m.Name, id) > 0 {
				// Replay is still owed batches; the digests will disagree
				// until it lands, and that is lag, not divergence.
				continue
			}
			if !c.hints.isDirty(m.Name, id) {
				rd, err := c.fetchDigest(ctx, m, id)
				if err == nil && rd.Seq == od.Seq && rd.Hash == od.Hash {
					continue // in sync
				}
				c.markDirtyReplica(m.Name, id)
			}
			st.Diverged++
			if err := c.repairReplica(ctx, owner, m, id); err != nil {
				c.met.repairFailures.Inc()
				st.Failed++
				continue
			}
			c.met.repairs.Inc()
			st.Repaired++
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

// repairReplica heals one (replica, graph) pair by full-state transfer,
// under the graph's fan-out lock so no live batch can straddle the
// export/install boundary. On success the pair's dirty mark and any
// leftover hints are dropped — the transfer subsumed them.
func (c *Client) repairReplica(ctx context.Context, owner, m Member, id string) error {
	muRaw, _ := c.patchLocks.LoadOrStore(id, &sync.Mutex{})
	mu := muRaw.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()

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
	c.hints.purgeGraph(m.Name, id)
	c.hints.clearDirty(m.Name, id)
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
