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

// BroadcastList lists every Kp of g, appending each to into (whose clique
// size is p), by the trivial CONGEST algorithm: every node broadcasts its
// outgoing edges (under g's degeneracy orientation) to all neighbors;
// every node then locally lists the cliques it sees. Completeness: in any
// Kp, every edge is oriented away from some member, every member is
// adjacent to every other, so each member receives every edge of the
// clique.
//
// The bill is maxOutDegree rounds (each node pushes its ≤ maxOutDegree
// out-edges down every incident edge, one word per round). The local
// enumeration is performed once globally, on g's own kernel — per-node
// enumeration would produce the identical union at the identical bill —
// so each clique is appended exactly once.
func BroadcastList(g *graph.Graph, cm congest.CostModel, ledger *congest.Ledger, into *graph.CliqueBag) error {
	if p := into.P(); p < 2 {
		return fmt.Errorf("baseline: p=%d < 2", p)
	}
	orient := g.DegeneracyOrientation()
	// Messages: each node sends outdeg words to each of its deg neighbors.
	var msgs int64
	for v := graph.V(0); int(v) < g.N(); v++ {
		msgs += int64(orient.OutDegree(v)) * int64(g.Degree(v))
	}
	rounds := cm.BroadcastRounds(int64(orient.MaxOutDegree()))
	if rounds < 1 {
		rounds = 1
	}
	ledger.Charge("broadcast-listing", rounds, msgs)
	g.VisitCliques(into.P(), into.Add)
	return nil
}
