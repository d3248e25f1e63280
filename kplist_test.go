package kplist

import (
	"slices"
	"strings"
	"testing"
)

func TestPublicAPICONGEST(t *testing.T) {
	g := ErdosRenyi(100, 0.35, 1)
	res, err := ListCONGEST(g, 4, Options{Seed: 1})
	if err != nil {
		t.Fatalf("ListCONGEST: %v", err)
	}
	if err := Verify(g, 4, res.Cliques); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || res.Messages <= 0 || len(res.Phases) == 0 {
		t.Errorf("bill not populated: %+v", res)
	}
}

func TestPublicAPIFastK4(t *testing.T) {
	g := ErdosRenyi(100, 0.35, 2)
	res, err := ListCONGEST(g, 4, Options{Seed: 2, FastK4: true})
	if err != nil {
		t.Fatalf("FastK4: %v", err)
	}
	if err := Verify(g, 4, res.Cliques); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICongestedClique(t *testing.T) {
	g := ErdosRenyi(80, 0.3, 3)
	for _, p := range []int{3, 4, 5} {
		res, err := ListCongestedClique(g, p, Options{Seed: 3})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := Verify(g, p, res.Cliques); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := ErdosRenyi(90, 0.3, 4)
	res, err := ListBroadcast(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 4, res.Cliques); err != nil {
		t.Fatal(err)
	}
	eden, err := ListEdenK4(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 4, eden.Cliques); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRejectsP3CONGEST(t *testing.T) {
	g := Complete(10)
	if _, err := ListCONGEST(g, 3, Options{}); err == nil {
		t.Error("p=3 should be rejected with guidance")
	}
}

func TestPublicAPIDeterministic(t *testing.T) {
	g := ErdosRenyi(90, 0.35, 5)
	a, err := ListCONGEST(g, 4, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListCONGEST(g, 4, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || len(a.Cliques) != len(b.Cliques) {
		t.Errorf("same seed should give identical runs: (%d,%d,%d) vs (%d,%d,%d)",
			a.Rounds, a.Messages, len(a.Cliques), b.Rounds, b.Messages, len(b.Cliques))
	}
}

func TestPublicAPIPaperCostsCostMore(t *testing.T) {
	g := ErdosRenyi(90, 0.35, 6)
	unit, err := ListCONGEST(g, 4, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := ListCONGEST(g, 4, Options{Seed: 6, PaperCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Rounds < unit.Rounds {
		t.Errorf("paper cost model (%d rounds) should be ≥ unit model (%d)", paper.Rounds, unit.Rounds)
	}
}

func TestVerifyDetectsErrors(t *testing.T) {
	g := Complete(5)
	truth := GroundTruth(g, 4)
	if err := Verify(g, 4, truth); err != nil {
		t.Fatalf("truth should verify: %v", err)
	}
	if err := Verify(g, 4, truth[1:]); err == nil {
		t.Error("missing clique should fail verification")
	}
	bogus := append([]Clique{{0, 1, 2, 7}}, truth...)
	if err := Verify(g, 4, bogus); err == nil {
		t.Error("spurious clique should fail verification")
	}
}

// TestVerifyMalformedInput: Verify ignores clique order, vertex order and
// repeats, and reports a clique of the wrong size or with a vertex
// outside [0, n) as spurious — without panicking, whatever the input.
func TestVerifyMalformedInput(t *testing.T) {
	g := Complete(5)
	truth := GroundTruth(g, 4)
	reordered := []Clique{{4, 3, 2, 1}}
	for i := len(truth) - 1; i >= 0; i-- {
		reordered = append(reordered, Clique{truth[i][3], truth[i][1], truth[i][0], truth[i][2]}, truth[i])
	}
	if err := Verify(g, 4, reordered); err != nil {
		t.Errorf("unsorted, repeated truth should verify: %v", err)
	}
	for _, tc := range []struct {
		name string
		bad  Clique
	}{
		{"short", Clique{0, 1, 2}},
		{"long", Clique{0, 1, 2, 3, 4}},
		{"empty", Clique{}},
		{"vertex n", Clique{0, 1, 2, 5}},
		{"vertex far out", Clique{1 << 30, 0, 1, 2}},
		{"negative vertex", Clique{-1, 0, 1, 2}},
		{"repeated vertex", Clique{0, 0, 1, 2}},
	} {
		err := Verify(g, 4, append(slices.Clone(truth), tc.bad))
		if err == nil || !strings.Contains(err.Error(), "spurious") {
			t.Errorf("%s clique %v: got %v, want a spurious-clique error", tc.name, tc.bad, err)
		}
	}
	if err := Verify(g, 0, []Clique{{}}); err == nil {
		t.Error("a 0-clique should not verify")
	}
	if err := Verify(g, -1, []Clique{{0}}); err == nil {
		t.Error("a clique for p=-1 should not verify")
	}
}

func TestGeneratorsExposed(t *testing.T) {
	g, planted := PlantedCliques(60, 5, 2, 0.05, 7)
	if g.N() != 60 || len(planted) != 2 {
		t.Error("PlantedCliques wrapper wrong")
	}
	if GNM(50, 100, 1).M() != 100 {
		t.Error("GNM wrapper wrong")
	}
	if Complete(6).M() != 15 {
		t.Error("Complete wrapper wrong")
	}
	if g2, err := NewGraph(3, []Edge{{U: 0, V: 1}}); err != nil || g2.M() != 1 {
		t.Error("NewGraph wrapper wrong")
	}
}
