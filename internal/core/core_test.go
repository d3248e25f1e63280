package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// runExact asserts the full pipeline output equals sequential ground truth.
func runExact(t *testing.T, g *graph.Graph, prm Params) (*Result, *congest.Ledger) {
	t.Helper()
	var ledger congest.Ledger
	res, err := ListCliques(g, prm, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ListCliques(p=%d): %v", prm.P, err)
	}
	if got, want := res.Cliques.Cliques(), g.ListCliques(prm.P); !slices.EqualFunc(got, want, slices.Equal) {
		gs, ws := graph.NewCliqueSet(got), graph.NewCliqueSet(want)
		t.Fatalf("p=%d: got %d cliques, want %d; missing=%v extra=%v",
			prm.P, len(got), len(want), ws.Minus(gs), gs.Minus(ws))
	}
	return res, &ledger
}

func TestTheorem11ExactOnER(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n    int
		dens float64
		p    int
	}{
		{120, 0.4, 4},
		{120, 0.4, 5},
		{100, 0.45, 6},
		{150, 0.25, 4},
	} {
		g := graph.ErdosRenyi(tc.n, tc.dens, rng)
		res, ledger := runExact(t, g, Params{P: tc.p, Seed: 11})
		if ledger.Rounds() == 0 {
			t.Error("no rounds charged")
		}
		if res.OuterIterations == 0 && res.FinalEdges == 0 && g.M() > 0 {
			t.Error("pipeline did nothing")
		}
	}
}

func TestTheorem12FastK4Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dens := range []float64{0.3, 0.5} {
		g := graph.ErdosRenyi(130, dens, rng)
		runExact(t, g, Params{P: 4, FastK4: true, Seed: 22})
	}
}

func TestPlantedCliquesListedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, planted := graph.PlantedCliques(150, 6, 4, 0.08, rng)
	res, _ := runExact(t, g, Params{P: 6, Seed: 33})
	listed := graph.NewCliqueSet(res.Cliques.Cliques())
	for _, c := range planted {
		if !listed.Has(graph.Clique(c)) {
			t.Errorf("planted K6 %v missing", c)
		}
	}
}

func TestParanoidMode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(100, 0.4, rng)
	runExact(t, g, Params{P: 4, Seed: 44, Paranoid: true})
}

func TestForcedPipelineIterations(t *testing.T) {
	// A tiny FinalExponent forces the outer loop to iterate rather than
	// falling straight to the broadcast phase.
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(140, 0.5, rng)
	res, _ := runExact(t, g, Params{P: 4, Seed: 55, FinalExponent: 0.1})
	if res.OuterIterations == 0 {
		t.Error("expected outer iterations with FinalExponent=0.1")
	}
	// Ladder must be non-increasing.
	for i := 1; i < len(res.ArboricityLadder); i++ {
		if res.ArboricityLadder[i] > res.ArboricityLadder[i-1] {
			t.Errorf("arboricity ladder rose: %v", res.ArboricityLadder)
		}
	}
}

func TestSparseGraphSkipsToFinal(t *testing.T) {
	// A path has degeneracy 1 ≤ n^{3/4}: the pipeline should go straight
	// to the final broadcast phase and still be exact (zero K4s).
	g := graph.Path(200)
	res, ledger := runExact(t, g, Params{P: 4, Seed: 66})
	if res.OuterIterations != 0 {
		t.Errorf("sparse graph ran %d outer iterations", res.OuterIterations)
	}
	if ledger.Phase("broadcast-listing").Rounds == 0 {
		t.Error("final phase not billed")
	}
}

func TestEmptyAndErrorCases(t *testing.T) {
	var ledger congest.Ledger
	empty := graph.MustNew(0, nil)
	res, err := ListCliques(empty, Params{P: 4, Seed: 1}, congest.UnitCosts(), &ledger)
	if err != nil || len(res.Cliques.Cliques()) != 0 {
		t.Errorf("empty graph: %v, %d cliques", err, len(res.Cliques.Cliques()))
	}
	g := graph.Complete(5)
	if _, err := ListCliques(g, Params{P: 3}, congest.UnitCosts(), &ledger); err == nil {
		t.Error("p=3 should be rejected (Theorem 1.1 is p ≥ 4)")
	}
	if _, err := ListCliques(g, Params{P: 5, FastK4: true}, congest.UnitCosts(), &ledger); err == nil {
		t.Error("FastK4 with p≠4 should be rejected")
	}
}

func TestCompleteGraphAllP(t *testing.T) {
	// K_30 at p=6,7 enumerates millions of cliques and dominates the
	// package's wall-clock; short mode keeps the p=4,5 coverage.
	g := graph.Complete(30)
	maxP := 7
	if testing.Short() {
		maxP = 5
	}
	for p := 4; p <= maxP; p++ {
		runExact(t, g, Params{P: p, Seed: int64(p)})
	}
}

func TestPaperBadThresholdStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(110, 0.4, rng)
	runExact(t, g, Params{P: 4, Seed: 77, PaperBadThreshold: true})
}

// Property: the pipeline is exact across random seeds, densities, p, and
// both K4 modes.
func TestQuickPipelineExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, densRaw, pRaw uint8, fast bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 4 + int(pRaw%3)
		if fast {
			p = 4
		}
		g := graph.ErdosRenyi(70, 0.25+float64(densRaw%100)/350.0, rng)
		var ledger congest.Ledger
		res, err := ListCliques(g, Params{P: p, FastK4: fast, Seed: seed}, congest.UnitCosts(), &ledger)
		if err != nil {
			return false
		}
		return slices.EqualFunc(res.Cliques.Cliques(), g.ListCliques(p), slices.Equal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestFinalExponentDefaults(t *testing.T) {
	if got := (Params{P: 4}).finalExponent(); got != 0.75 {
		t.Errorf("p=4 exponent = %v, want 0.75 (n^{3/4} dominates)", got)
	}
	if got := (Params{P: 6}).finalExponent(); got != 0.75 {
		t.Errorf("p=6 exponent = %v, want 0.75 = 6/8", got)
	}
	if got := (Params{P: 8}).finalExponent(); got != 0.8 {
		t.Errorf("p=8 exponent = %v, want 8/10", got)
	}
	if got := (Params{P: 4, FastK4: true}).finalExponent(); got < 0.66 || got > 0.67 {
		t.Errorf("fast-K4 exponent = %v, want 2/3", got)
	}
	if got := (Params{P: 4, FinalExponent: 0.5}).finalExponent(); got != 0.5 {
		t.Error("explicit exponent should pass through")
	}
}

func TestClusterThresholdOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(100, 0.4, rng)
	// An explicit threshold must flow into the ARB-LIST passes (visible in
	// the pass census) and keep the pipeline exact.
	var ledger congest.Ledger
	res, err := ListCliques(g, Params{P: 4, Seed: 9, FinalExponent: 0.1, ClusterThreshold: 7},
		congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(res.Cliques.Cliques(), g.ListCliques(4), slices.Equal) {
		t.Fatal("override run not exact")
	}
	found := false
	for _, lr := range res.ListResults {
		for _, st := range lr.PassStats {
			if st.ClusterThr == 7 {
				found = true
			}
		}
	}
	if res.OuterIterations > 0 && !found {
		t.Error("explicit cluster threshold did not reach the passes")
	}
}

func TestMaxOuterCap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(100, 0.4, rng)
	var ledger congest.Ledger
	res, err := ListCliques(g, Params{P: 4, Seed: 10, FinalExponent: 0.01, MaxOuter: 1},
		congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIterations > 1 {
		t.Errorf("MaxOuter=1 but ran %d iterations", res.OuterIterations)
	}
	// The final broadcast phase must still make the output exact.
	if !slices.EqualFunc(res.Cliques.Cliques(), g.ListCliques(4), slices.Equal) {
		t.Error("capped run not exact")
	}
}
