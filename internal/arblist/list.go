package arblist

import (
	"fmt"

	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/graph"
)

// ListResult is the outcome of Algorithm LIST (Theorem 2.8). Like each
// pass, LIST only bills: every Kp with at least one edge outside the
// returned Es is known in full by some node of the pass that removed it
// (or of the fallback broadcast).
type ListResult struct {
	// Es is the surviving sparse edge set (the theorem's Ẽs); its
	// certified orientation bounds the new arboricity.
	Es graph.EdgeList
	// EsOrient orients Es with max out-degree ≤ iterations · threshold
	// (the paper's n^δ·log n = A/2 ladder).
	EsOrient *graph.Orientation
	// Iterations is the number of ARB-LIST passes performed.
	Iterations int
	// FellBack reports whether the broadcast fallback fired (Er failed to
	// shrink within the iteration cap — cannot happen in the paper's
	// asymptotic regime; at practical scale it is billed honestly).
	FellBack bool
	// PassStats holds the per-pass census, for the E6 experiment.
	PassStats []ArbStats
	// ErSizes traces |Er| at the start of each pass (the ×4 decay law).
	ErSizes []int
}

// List runs Algorithm LIST (Theorem 2.8) on g: iterate ARB-LIST on the
// working graph, covering every Kp that has at least one edge in each
// pass's EmHat and removing those edges, until Er is empty. The surviving
// Es has an orientation whose out-degree grew by at most the cluster
// threshold per pass — the paper's guarantee that the output arboricity
// is A/2 when the threshold is A/(2 log n). The first pass works on g
// itself, so its memoized peel serves it.
func List(g *graph.Graph, prm Params, cm congest.CostModel, ledger *congest.Ledger) (*ListResult, error) {
	if prm.P < 3 {
		return nil, fmt.Errorf("arblist: p=%d < 3", prm.P)
	}
	n := g.N()
	es := graph.EdgeList{}
	esOrient, err := graph.NewOrientation(n, make([][]graph.V, n))
	if err != nil {
		return nil, err
	}
	er := graph.NewEdgeList(g.Edges())
	out := &ListResult{}
	cap := prm.maxIterations(n)
	for iter := 0; len(er) > 0 && iter < cap; iter++ {
		if err := congest.CtxErr(prm.Ctx); err != nil {
			return nil, err
		}
		out.ErSizes = append(out.ErSizes, len(er))
		passPrm := prm
		passPrm.Seed = prm.Seed + int64(iter)*1_000_003
		if iter > 0 {
			if g, err = graph.Union(es, er).Graph(n); err != nil {
				return nil, fmt.Errorf("arblist: pass %d: building working graph: %w", iter, err)
			}
		}
		res, err := ArbList(g, es, esOrient, er, passPrm, cm, ledger)
		if err != nil {
			return nil, fmt.Errorf("arblist: pass %d: %w", iter, err)
		}
		out.PassStats = append(out.PassStats, res.Stats)
		out.Iterations++
		if len(res.ErHat) >= len(er) {
			// No progress (possible only at practical scale when bad
			// edges dominate): fall back to broadcast listing of what
			// remains, billed at its true cost.
			es, esOrient, er = res.EsHat, res.EsHatOrient, res.ErHat
			break
		}
		es, esOrient, er = res.EsHat, res.EsHatOrient, res.ErHat
	}
	if len(er) > 0 {
		out.FellBack = true
		full := graph.Union(es, er)
		fullGraph, err := full.Graph(n)
		if err != nil {
			return nil, err
		}
		if err := baseline.BroadcastList(fullGraph, prm.P, cm, ledger); err != nil {
			return nil, fmt.Errorf("arblist: fallback: %w", err)
		}
		// Everything left is now covered; Er is consumed, Es survives as
		// the sparse remainder contract.
	}
	out.Es = es
	out.EsOrient = esOrient
	return out, nil
}
