// Package baseline implements the comparison algorithms the paper measures
// itself against: the trivial Θ̃(n)-round broadcast lister (Remark 2.6,
// also the final phase of Theorem 1.1 and the LIST fallback), an
// Eden-et-al-style K4/K5 lister (DISC 2019, the previous state of the
// art), and a naive non-sparsity-aware in-cluster lister used by the
// ablation experiments.
package baseline

import (
	"fmt"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// BroadcastList lists every Kp in the edge set by the trivial CONGEST
// algorithm: every node broadcasts its outgoing edges (under the given
// orientation) to all neighbors; every node then locally lists the cliques
// it sees. Completeness: in any Kp, every edge is oriented away from some
// member, every member is adjacent to every other, so each member receives
// every edge of the clique.
//
// The bill is maxOutDegree rounds (each node pushes its ≤ maxOutDegree
// out-edges down every incident edge, one word per round). The local
// enumeration is performed once globally — per-node enumeration would
// produce the identical union at the identical bill — so the returned bag
// holds each clique exactly once.
func BroadcastList(n int, edges graph.EdgeList, orient *graph.Orientation, p int, cm congest.CostModel, ledger *congest.Ledger) (*graph.CliqueBag, error) {
	if p < 2 {
		return nil, fmt.Errorf("baseline: p=%d < 2", p)
	}
	if orient == nil {
		g, err := edges.Graph(n)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		orient = g.DegeneracyOrientation()
	}
	// Rounds: every node broadcasts its out-edges on every incident edge.
	maxOut := int64(orient.MaxOutDegree())
	// Messages: each node sends outdeg words to each of its deg neighbors.
	av, err := graph.NewAdjacencyView(n, edges)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var msgs int64
	for v := 0; v < n; v++ {
		msgs += int64(orient.OutDegree(graph.V(v))) * int64(av.Degree(graph.V(v)))
	}
	rounds := cm.BroadcastRounds(maxOut)
	if rounds < 1 {
		rounds = 1
	}
	ledger.Charge("broadcast-listing", rounds, msgs)

	cliques := graph.NewCliqueBag(p)
	graph.NewLocalLister(edges).AddCliques(cliques)
	return cliques, nil
}

// BroadcastListGraph is BroadcastList over a whole graph with its
// degeneracy orientation.
func BroadcastListGraph(g *graph.Graph, p int, cm congest.CostModel, ledger *congest.Ledger) (*graph.CliqueBag, error) {
	return BroadcastList(g.N(), graph.NewEdgeList(g.Edges()), g.DegeneracyOrientation(), p, cm, ledger)
}
