package arblist

import (
	"math/rand"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// cliqueTouches reports whether clique c has at least one edge inside el
// (el normalized).
func cliqueTouches(c graph.Clique, el graph.EdgeList) bool {
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if el.Contains(graph.Edge{U: c[i], V: c[j]}) {
				return true
			}
		}
	}
	return false
}

// checkArbContract verifies the Theorem 2.9 contract for one pass:
// partition exactness, orientation bound, and goal-edge listing coverage.
func checkArbContract(t *testing.T, n int, es, er graph.EdgeList, res *ArbResult, p int) {
	t.Helper()
	input := graph.Union(es, er)
	together := graph.Union(graph.Union(res.EmHat, res.EsHat), res.ErHat)
	if len(together) != len(input) || len(graph.Subtract(together, input)) != 0 {
		t.Fatalf("EmHat/EsHat/ErHat do not partition the input: %d vs %d edges", len(together), len(input))
	}
	if !graph.Disjoint(res.EmHat, res.EsHat) || !graph.Disjoint(res.EmHat, res.ErHat) || !graph.Disjoint(res.EsHat, res.ErHat) {
		t.Fatal("output sets not disjoint")
	}
	cover := res.EsHatOrient.Edges()
	if len(cover) != len(res.EsHat) || len(graph.Subtract(cover, res.EsHat)) != 0 {
		t.Fatal("EsHat orientation does not cover EsHat")
	}
	// Coverage: every Kp of the working graph with ≥1 edge in EmHat is
	// listed.
	g, err := input.Graph(n)
	if err != nil {
		t.Fatal(err)
	}
	listed := res.Cliques.Cliques()
	listedSet := graph.NewCliqueSet(listed)
	for _, c := range g.ListCliques(p) {
		if cliqueTouches(c, res.EmHat) && !listedSet.Has(c) {
			t.Fatalf("K%d %v has a goal edge but was not listed", p, c)
		}
	}
	// Soundness: everything listed is a real clique of the working graph.
	for _, c := range listed {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(c[i], c[j]) {
					t.Fatalf("fabricated clique %v", c)
				}
			}
		}
	}
}

func TestArbListDenseGraphK4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(150, 0.4, rng)
	er := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := ArbList(g.N(), nil, nil, er, Params{P: 4, Seed: 1, Paranoid: true}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ArbList: %v", err)
	}
	checkArbContract(t, g.N(), nil, er, res, 4)
	if res.Stats.Clusters == 0 {
		t.Error("dense ER graph should produce clusters")
	}
	if len(res.EmHat) == 0 {
		t.Error("dense ER graph should produce goal edges")
	}
	if len(res.ErHat) >= len(er) {
		t.Errorf("|ErHat| = %d did not shrink from |Er| = %d", len(res.ErHat), len(er))
	}
	if ledger.Rounds() == 0 {
		t.Error("no rounds charged")
	}
}

func TestArbListK5AndK6(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(120, 0.45, rng)
	er := graph.NewEdgeList(g.Edges())
	for _, p := range []int{5, 6} {
		var ledger congest.Ledger
		res, err := ArbList(g.N(), nil, nil, er, Params{P: p, Seed: 2}, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkArbContract(t, g.N(), nil, er, res, p)
	}
}

func TestArbListWithPriorEs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyi(130, 0.35, rng)
	all := graph.NewEdgeList(g.Edges())
	// Split: a third of edges pre-assigned to Es with a peel orientation.
	esOrient, esEdges, _ := graph.PeelOrientation(g.N(), all, 10)
	er := graph.Subtract(all, esEdges)
	var ledger congest.Ledger
	res, err := ArbList(g.N(), esEdges, esOrient, er, Params{P: 4, Seed: 3}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ArbList: %v", err)
	}
	checkArbContract(t, g.N(), esEdges, er, res, 4)
	// Prior Es must survive inside EsHat.
	if len(graph.Subtract(esEdges, res.EsHat)) != 0 {
		t.Error("input Es edges leaked out of EsHat")
	}
}

func TestArbListFastK4(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(150, 0.4, rng)
	er := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := ArbList(g.N(), nil, nil, er, Params{P: 4, Seed: 4, FastK4: true}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ArbList fast-K4: %v", err)
	}
	checkArbContract(t, g.N(), nil, er, res, 4)
	if res.Stats.BadEdges != 0 {
		t.Error("fast-K4 mode must not demote bad edges")
	}
}

func TestArbListSparseGraphNoClusters(t *testing.T) {
	g := graph.Cycle(60)
	er := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := ArbList(g.N(), nil, nil, er, Params{P: 4, ClusterThreshold: 3, Seed: 5}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ArbList: %v", err)
	}
	if res.Stats.Clusters != 0 {
		t.Error("cycle should produce no clusters")
	}
	if len(res.EsHat) != g.M() {
		t.Errorf("all edges should peel to EsHat, got %d/%d", len(res.EsHat), g.M())
	}
	if len(res.EmHat) != 0 || len(res.ErHat) != 0 {
		t.Error("no goal or leftover edges expected")
	}
}

func TestArbListRejectsBadP(t *testing.T) {
	var ledger congest.Ledger
	if _, err := ArbList(10, nil, nil, nil, Params{P: 2}, congest.UnitCosts(), &ledger); err == nil {
		t.Error("p=2 should error")
	}
}

func TestListContract(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(140, 0.4, rng)
	edges := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := List(g.N(), edges, Params{P: 4, Seed: 6}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	// Es ⊆ input; everything outside Es is accounted for.
	if len(graph.Subtract(res.Es, edges)) != 0 {
		t.Fatal("Es contains foreign edges")
	}
	// Contract: every K4 with at least one edge outside Es is listed.
	listed := graph.NewCliqueSet(res.Cliques.Cliques())
	for _, c := range g.ListCliques(4) {
		removed := graph.Subtract(edges, res.Es)
		if cliqueTouches(c, removed) && !listed.Has(c) {
			t.Fatalf("K4 %v touches removed edges but was not listed", c)
		}
	}
	if res.Iterations == 0 {
		t.Error("expected at least one pass")
	}
	if res.EsOrient.MaxOutDegree() == 0 && len(res.Es) > 0 {
		t.Error("non-empty Es with empty orientation")
	}
}

func TestListErDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(160, 0.45, rng)
	edges := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := List(g.N(), edges, Params{P: 4, Seed: 7}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if res.FellBack {
		t.Log("fallback fired (acceptable at this scale), skipping decay check")
		return
	}
	// The paper guarantees |Er| shrinks ×4 per pass; at practical scale we
	// require strict decay.
	for i := 1; i < len(res.ErSizes); i++ {
		if res.ErSizes[i] >= res.ErSizes[i-1] {
			t.Errorf("pass %d: |Er| grew %d → %d", i, res.ErSizes[i-1], res.ErSizes[i])
		}
	}
}

func TestListOrientationLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(140, 0.4, rng)
	edges := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	prm := Params{P: 4, Seed: 8}
	res, err := List(g.N(), edges, prm, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	// Out-degree of the surviving orientation grows ≤ threshold per pass
	// (the (c+1)·n^δ ladder of Theorem 2.9).
	if len(res.PassStats) == 0 {
		t.Skip("no passes")
	}
	maxAllowed := 0
	for _, st := range res.PassStats {
		maxAllowed += st.ClusterThr
	}
	if got := res.EsOrient.MaxOutDegree(); got > maxAllowed {
		t.Errorf("EsOrient out-degree %d exceeds ladder bound %d", got, maxAllowed)
	}
}

func TestListEmptyInput(t *testing.T) {
	var ledger congest.Ledger
	res, err := List(20, nil, Params{P: 4, Seed: 1}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(res.Cliques.Cliques()) != 0 || len(res.Es) != 0 || res.Iterations != 0 {
		t.Error("empty input should be a no-op")
	}
}

func TestListFallbackOnIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.ErdosRenyi(120, 0.4, rng)
	edges := graph.NewEdgeList(g.Edges())
	var ledger congest.Ledger
	res, err := List(g.N(), edges, Params{P: 4, Seed: 9, MaxIterations: 1}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if !res.FellBack {
		t.Skip("Er emptied in one pass; fallback not exercised")
	}
	// Even with the fallback, the full contract holds.
	listed := graph.NewCliqueSet(res.Cliques.Cliques())
	for _, c := range g.ListCliques(4) {
		removed := graph.Subtract(edges, res.Es)
		if cliqueTouches(c, removed) && !listed.Has(c) {
			t.Fatalf("K4 %v not listed despite fallback", c)
		}
	}
	if ledger.Phase("broadcast-listing").Rounds == 0 {
		t.Error("fallback should charge broadcast rounds")
	}
}

func TestParamsDerivation(t *testing.T) {
	p := Params{}
	if p.clusterThreshold(1024, 512) != 512/20 {
		t.Errorf("clusterThreshold = %d", p.clusterThreshold(1024, 512))
	}
	if p.clusterThreshold(1024, 1) != 1 {
		t.Error("threshold clamps to 1")
	}
	if got := p.heavyThreshold(256, 100); got != 4 {
		t.Errorf("heavy threshold for n=256 = %d, want 256^(1/4)=4", got)
	}
	fast := Params{FastK4: true}
	if got := fast.heavyThreshold(1000, 100); got != 10 {
		t.Errorf("fast-K4 heavy threshold = %d, want 100/10=10", got)
	}
	if got := p.badThreshold(100); got != 10 {
		t.Errorf("bad threshold = %d, want sqrt(100)=10", got)
	}
	paper := Params{PaperBadThreshold: true}
	if got := paper.badThreshold(100); got != 100*10*7 {
		t.Errorf("paper bad threshold = %d, want 100·10·7", got)
	}
	explicit := Params{ClusterThreshold: 42, HeavyThreshold: 17, BadThreshold: 3, MaxIterations: 5}
	if explicit.clusterThreshold(1, 1) != 42 || explicit.heavyThreshold(1, 1) != 17 ||
		explicit.badThreshold(1) != 3 || explicit.maxIterations(1) != 5 {
		t.Error("explicit params should pass through")
	}
}
