package sparselist

import (
	"math/rand"
	"slices"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// TestListingWorkersEquivalent forces the standalone congested-clique
// lister onto a multi-goroutine pool (even on single-CPU hosts) and checks
// the output and bill are identical to the sequential run.
func TestListingWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.ErdosRenyi(120, 0.3, rng)
	run := func(workers int) (*Result, int64) {
		var ledger congest.Ledger
		res, err := CongestedCliqueOnGraph(g, 4, 7, workers, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("CongestedCliqueOnGraph(workers=%d): %v", workers, err)
		}
		return res, ledger.Rounds()
	}
	seqRes, seqRounds := run(1)
	for _, workers := range []int{3, 8} {
		parRes, parRounds := run(workers)
		if !slices.EqualFunc(seqRes.Cliques.Cliques(), parRes.Cliques.Cliques(), slices.Equal) {
			t.Fatalf("workers=%d: clique sets differ", workers)
		}
		if seqRes.MaxNodeLoad != parRes.MaxNodeLoad || seqRes.TotalMessages != parRes.TotalMessages ||
			seqRes.MaxPairEdges != parRes.MaxPairEdges || seqRounds != parRounds {
			t.Fatalf("workers=%d: load stats or bill differ", workers)
		}
	}
}
