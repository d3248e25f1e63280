package baseline

import (
	"math/rand"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

func TestBroadcastListLocalExactAndAttributed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(70, 0.3, rng)
	var ledger congest.Ledger
	res, err := BroadcastListLocal(g.N(), graph.NewEdgeList(g.Edges()), nil, 4, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("BroadcastListLocal: %v", err)
	}
	want := graph.NewCliqueSet(g.ListCliques(4))
	if !res.All.Equal(want) {
		t.Fatalf("union = %d cliques, want %d", res.All.Len(), want.Len())
	}
	// Local-listing discipline: every clique reported by node v contains v,
	// and every clique is reported by ALL of its members.
	reporters := make(map[string]int)
	for v, cs := range res.ByNode {
		for _, c := range cs {
			if !graph.ContainsSorted([]graph.V(c), v) {
				t.Fatalf("node %d reported foreign clique %v", v, c)
			}
			reporters[c.Key()]++
		}
	}
	for key := range want {
		if reporters[key] != 4 {
			t.Errorf("clique %v reported by %d members, want all 4",
				graph.CliqueFromKey(key), reporters[key])
		}
	}
}

func TestBroadcastListLocalBillMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(60, 0.25, rng)
	el := graph.NewEdgeList(g.Edges())
	or := g.DegeneracyOrientation()
	var l1, l2 congest.Ledger
	if err := BroadcastList(g, congest.UnitCosts(), &l1, graph.NewCliqueBag(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := BroadcastListLocal(g.N(), el, or, 4, congest.UnitCosts(), &l2); err != nil {
		t.Fatal(err)
	}
	if l1.Rounds() != l2.Rounds() || l1.Messages() != l2.Messages() {
		t.Errorf("local variant bill (%d,%d) differs from global (%d,%d)",
			l2.Rounds(), l2.Messages(), l1.Rounds(), l1.Messages())
	}
}

func TestBroadcastListLocalErrors(t *testing.T) {
	var ledger congest.Ledger
	if _, err := BroadcastListLocal(5, nil, nil, 1, congest.UnitCosts(), &ledger); err == nil {
		t.Error("p=1 should error")
	}
	res, err := BroadcastListLocal(5, nil, nil, 3, congest.UnitCosts(), &ledger)
	if err != nil || res.All.Len() != 0 {
		t.Error("empty graph should yield empty listing")
	}
}
