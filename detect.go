package kplist

import (
	"fmt"
	"slices"

	"kplist/internal/algebraic"
	"kplist/internal/congest"
)

// Detection and counting variants. The paper's §5 notes that in CONGEST no
// better algorithms are known for Kp detection or counting than listing —
// these wrappers therefore run the listing pipeline and derive the
// detection/counting answer, billing the same rounds. The one exception
// the paper highlights is triangle counting in the CONGESTED CLIQUE,
// where algebraic methods are faster on dense graphs; CountTrianglesCC
// implements that route.

// DetectCONGEST reports whether g contains a Kp, via the Theorem 1.1
// pipeline (no faster detection is known in CONGEST, §5). The returned
// Result carries at most one witness clique and the full round bill.
func DetectCONGEST(g *Graph, p int, opt Options) (bool, *Result, error) {
	res, err := ListCONGEST(g, p, opt)
	if err != nil {
		return false, nil, err
	}
	found := len(res.Cliques) > 0
	if found {
		res.Cliques = witness(res.Cliques)
	}
	return found, res, nil
}

// CountCONGEST returns the number of Kp instances in g, via the
// Theorem 1.1 pipeline (no faster counting is known in CONGEST, §5).
func CountCONGEST(g *Graph, p int, opt Options) (int64, *Result, error) {
	res, err := ListCONGEST(g, p, opt)
	if err != nil {
		return 0, nil, err
	}
	return int64(len(res.Cliques)), res, nil
}

// CountTrianglesCC counts triangles in the CONGESTED CLIQUE via the
// algebraic (matrix multiplication) route — O(n^{1/3}) rounds regardless
// of density, faster than listing on dense graphs (§5 discussion;
// Censor-Hillel et al.).
func CountTrianglesCC(g *Graph, opt Options) (int64, *Result, error) {
	var ledger congest.Ledger
	count, err := algebraic.TriangleCountCC(g, opt.costModel(), &ledger)
	if err != nil {
		return 0, nil, err
	}
	return count, &Result{
		Rounds:   ledger.Rounds(),
		Messages: ledger.Messages(),
		Phases:   ledger.Phases(),
	}, nil
}

// DetectCongestedClique reports whether g contains a Kp in the CONGESTED
// CLIQUE model, via the Theorem 1.3 lister.
func DetectCongestedClique(g *Graph, p int, opt Options) (bool, *Result, error) {
	res, err := ListCongestedClique(g, p, opt)
	if err != nil {
		return false, nil, err
	}
	found := len(res.Cliques) > 0
	if found {
		res.Cliques = witness(res.Cliques)
	}
	return found, res, nil
}

// witness copies the first clique of a listing, so a detection result
// does not keep the whole listing's backing array alive.
func witness(cs []Clique) []Clique {
	return []Clique{slices.Clone(cs[0])}
}

// String renders a compact one-line summary of a result.
func (r *Result) String() string {
	return fmt.Sprintf("cliques=%d rounds=%d messages=%d phases=%d",
		len(r.Cliques), r.Rounds, r.Messages, len(r.Phases))
}
