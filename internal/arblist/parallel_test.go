package arblist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// TestArbListWorkersEquivalent asserts that the parallel cluster fan-out is
// invisible: every worker count yields the same edge sets, stats census,
// and ledger bill as the fully sequential loop, and the same knowledge —
// each run's goal edges are the ones whose coverage the re-derived pass
// checks.
func TestArbListWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dens := range []float64{0.15, 0.45} {
		g := graph.ErdosRenyi(90, dens, rng)
		el := graph.NewEdgeList(g.Edges())
		run := func(workers int) (*ArbResult, []congest.PhaseCost) {
			var ledger congest.Ledger
			prm := Params{P: 4, Seed: 99, ClusterThreshold: 6, Workers: workers}
			res, err := ArbList(g, nil, nil, el, prm, congest.UnitCosts(), &ledger)
			if err != nil {
				t.Fatalf("ArbList(workers=%d): %v", workers, err)
			}
			checkPassCoverage(t, g, el, prm, res)
			return res, ledger.Phases()
		}
		seqRes, seqPhases := run(1)
		for _, workers := range []int{2, 8} {
			parRes, parPhases := run(workers)
			if !reflect.DeepEqual(seqRes.EmHat, parRes.EmHat) ||
				!reflect.DeepEqual(seqRes.EsHat, parRes.EsHat) ||
				!reflect.DeepEqual(seqRes.ErHat, parRes.ErHat) {
				t.Fatalf("workers=%d: edge sets differ", workers)
			}
			if seqRes.Stats != parRes.Stats {
				t.Fatalf("workers=%d: stats %+v != %+v", workers, parRes.Stats, seqRes.Stats)
			}
			if !reflect.DeepEqual(seqPhases, parPhases) {
				t.Fatalf("workers=%d: ledger bills differ:\n  seq: %+v\n  par: %+v",
					workers, seqPhases, parPhases)
			}
		}
	}
}

// TestListWorkersEquivalent runs the full LIST ladder at several worker
// counts and checks the outputs coincide.
func TestListWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.ErdosRenyi(80, 0.35, rng)
	run := func(workers int) *ListResult {
		var ledger congest.Ledger
		res, err := List(g, Params{P: 4, Seed: 5, ClusterThreshold: 5, Workers: workers},
			congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("List(workers=%d): %v", workers, err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if !slices.Equal(seq.Es, par.Es) {
		t.Fatal("surviving Es differs between worker counts")
	}
	if seq.Iterations != par.Iterations || !reflect.DeepEqual(seq.ErSizes, par.ErSizes) {
		t.Fatalf("pass structure differs: %d/%v vs %d/%v",
			seq.Iterations, seq.ErSizes, par.Iterations, par.ErSizes)
	}
	if !reflect.DeepEqual(seq.PassStats, par.PassStats) {
		t.Fatal("pass stats differ between worker counts")
	}
}
