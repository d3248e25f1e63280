// Package routing implements the intra-cluster routing black box of
// Theorem 2.4 (Ghaffari–Kuhn–Su / Ghaffari–Li almost-mixing-time routing)
// and the Lemma 2.5 intra-cluster ID assignment contract.
//
// The paper uses routing as a contract: if every node of an n^δ-cluster
// needs to send and receive at most L words, the messages can be delivered
// in Õ(ceil(L/n^δ)) rounds using only cluster edges. Deliver enforces the
// contract mechanically — every message must travel between cluster
// members and loads are computed exactly — and charges the ledger
// accordingly. Data genuinely moves through this chokepoint, so listing
// outputs downstream are real.
package routing

import (
	"fmt"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
)

// Envelope is one routed message.
type Envelope[T any] struct {
	From, To graph.V
	Payload  T
}

// Router delivers messages within a single cluster per Theorem 2.4.
type Router struct {
	cluster *expander.Cluster
	cm      congest.CostModel
	n       int // size of the whole communication graph (for polylog factors)
}

// NewRouter creates a router for the given cluster within an n-node graph.
func NewRouter(cluster *expander.Cluster, n int, cm congest.CostModel) *Router {
	return &Router{cluster: cluster, cm: cm, n: n}
}

// Cluster returns the cluster this router serves.
func (r *Router) Cluster() *expander.Cluster { return r.cluster }

// Deliver routes the envelopes inside the cluster: it validates that every
// endpoint is a cluster member, computes the exact per-node send/receive
// loads, charges the ledger `phase` with the Theorem 2.4 bill (using
// ChargeMax so clusters operating in parallel pay the max, not the sum),
// and returns the per-destination inboxes.
func Deliver[T any](r *Router, ledger *congest.Ledger, phase string, envs []Envelope[T]) (map[graph.V][]Envelope[T], error) {
	loads := make(map[graph.V]int64, r.cluster.K())
	inbox := make(map[graph.V][]Envelope[T], r.cluster.K())
	for _, e := range envs {
		if !r.cluster.Contains(e.From) {
			return nil, fmt.Errorf("routing: sender %d not in cluster %d", e.From, r.cluster.ID)
		}
		if !r.cluster.Contains(e.To) {
			return nil, fmt.Errorf("routing: recipient %d not in cluster %d", e.To, r.cluster.ID)
		}
		loads[e.From]++
		loads[e.To]++
		inbox[e.To] = append(inbox[e.To], e)
	}
	var maxLoad int64
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	rounds := r.cm.RouteRounds(r.n, maxLoad, int64(r.cluster.MinDegree))
	ledger.ChargeMax(phase, rounds, int64(len(envs)))
	return inbox, nil
}

// ChargeLoads charges the Theorem 2.4 bill for a phase whose data movement
// was performed by the caller (when building explicit envelopes would be
// wasteful). sent and recv give each member's word counts.
func (r *Router) ChargeLoads(ledger *congest.Ledger, phase string, sent, recv map[graph.V]int64) error {
	var maxLoad int64
	for v, l := range sent {
		if !r.cluster.Contains(v) {
			return fmt.Errorf("routing: sender %d not in cluster %d", v, r.cluster.ID)
		}
		if l+recv[v] > maxLoad {
			maxLoad = l + recv[v]
		}
	}
	for v, l := range recv {
		if !r.cluster.Contains(v) {
			return fmt.Errorf("routing: recipient %d not in cluster %d", v, r.cluster.ID)
		}
		if l+sent[v] > maxLoad {
			maxLoad = l + sent[v]
		}
	}
	var msgs int64
	for _, l := range sent {
		msgs += l
	}
	rounds := r.cm.RouteRounds(r.n, maxLoad, int64(r.cluster.MinDegree))
	ledger.ChargeMax(phase, rounds, msgs)
	return nil
}

// Responsibility implements the §2.4.3 reshuffling ownership map: cluster
// node with new ID i ∈ [k] is responsible for the graph vertices whose ID
// falls in [(i)·n/k, (i+1)·n/k) (0-based form of the paper's ranges).
type Responsibility struct {
	cluster *expander.Cluster
	n       int
}

// NewResponsibility builds the ownership map of a cluster over an n-vertex
// graph.
func NewResponsibility(cluster *expander.Cluster, n int) *Responsibility {
	return &Responsibility{cluster: cluster, n: n}
}

// OwnerOf returns the cluster member responsible for graph vertex w.
func (rs *Responsibility) OwnerOf(w graph.V) graph.V {
	k := rs.cluster.K()
	// Even split of [0,n) into k contiguous ranges.
	idx := int(int64(w) * int64(k) / int64(rs.n))
	if idx >= k {
		idx = k - 1
	}
	return rs.cluster.ByNewID(idx)
}

// Range returns the half-open vertex range [lo, hi) owned by the cluster
// member with new ID i. Consistent with OwnerOf: w is owned by member i
// iff floor(w·k/n) = i, i.e. w ∈ [ceil(i·n/k), ceil((i+1)·n/k)).
func (rs *Responsibility) Range(i int) (lo, hi graph.V) {
	k := int64(rs.cluster.K())
	n := int64(rs.n)
	lo = graph.V((int64(i)*n + k - 1) / k)
	hi = graph.V((int64(i+1)*n + k - 1) / k)
	return lo, hi
}
