package arblist

import (
	"fmt"

	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/graph"
)

// ListResult is the outcome of Algorithm LIST (Theorem 2.8).
type ListResult struct {
	// Cliques are all Kp listed, appended pass by pass (duplicates
	// possible; Cliques() sorts and dedups): every Kp with at least one
	// edge outside the returned Es is guaranteed present.
	Cliques *graph.CliqueBag
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

// List runs Algorithm LIST (Theorem 2.8): iterate ARB-LIST on the working
// graph, listing every Kp that has at least one edge in each pass's EmHat
// and removing those edges, until Er is empty. The surviving Es has an
// orientation whose out-degree grew by at most the cluster threshold per
// pass — the paper's guarantee that the output arboricity is A/2 when the
// threshold is A/(2 log n).
func List(n int, edges graph.EdgeList, prm Params, cm congest.CostModel, ledger *congest.Ledger) (*ListResult, error) {
	if prm.P < 3 {
		return nil, fmt.Errorf("arblist: p=%d < 3", prm.P)
	}
	es := graph.EdgeList{}
	esOrient, err := graph.NewOrientation(n, make([][]graph.V, n))
	if err != nil {
		return nil, err
	}
	er := edges
	out := &ListResult{Cliques: graph.NewCliqueBag(prm.P)}
	cap := prm.maxIterations(n)
	for iter := 0; len(er) > 0 && iter < cap; iter++ {
		if err := congest.CtxErr(prm.Ctx); err != nil {
			return nil, err
		}
		out.ErSizes = append(out.ErSizes, len(er))
		passPrm := prm
		passPrm.Seed = prm.Seed + int64(iter)*1_000_003
		res, err := ArbList(n, es, esOrient, er, passPrm, cm, ledger)
		if err != nil {
			return nil, fmt.Errorf("arblist: pass %d: %w", iter, err)
		}
		out.Cliques.AddBag(res.Cliques)
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
		cliques, err := baseline.BroadcastList(n, full, fullGraph.DegeneracyOrientation(), prm.P, cm, ledger)
		if err != nil {
			return nil, fmt.Errorf("arblist: fallback: %w", err)
		}
		out.Cliques.AddBag(cliques)
		// Everything left is now listed; Er is consumed, Es survives as
		// the sparse remainder contract.
	}
	out.Es = es
	out.EsOrient = esOrient
	return out, nil
}
