package algebraic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kplist/internal/congest"
	"kplist/internal/graph"
	"kplist/internal/sparselist"
)

func TestTriangleCountKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", graph.Complete(4), 4},
		{"K6", graph.Complete(6), 20},
		{"C5", graph.Cycle(5), 0},
		{"triangle", graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), 1},
		{"empty", graph.MustNew(5, nil), 0},
		{"null", graph.MustNew(0, nil), 0},
	}
	for _, c := range cases {
		var ledger congest.Ledger
		got, err := TriangleCountCC(c.g, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: count = %d, want %d", c.name, got, c.want)
		}
		if ledger.Rounds() < 1 {
			t.Errorf("%s: no rounds charged", c.name)
		}
	}
}

func TestTriangleCountMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyi(120, 0.1+0.4*rng.Float64(), rng)
		var ledger congest.Ledger
		got, err := TriangleCountCC(g, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatal(err)
		}
		want := g.CountCliques(3)
		if got != want {
			t.Fatalf("trial %d: algebraic count %d, enumeration %d", trial, got, want)
		}
	}
}

// TestCountingCheaperThanListingWhenDense reproduces the §5 comparison:
// on dense graphs the O(n^{1/3})-round algebraic counter beats the
// Θ̃(m/n^{1+2/3})-round sparsity-aware lister, and both agree on the
// triangle count.
func TestCountingCheaperThanListingWhenDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(200, 0.8, rng)
	var lc congest.Ledger
	count, err := TriangleCountCC(g, congest.UnitCosts(), &lc)
	if err != nil {
		t.Fatal(err)
	}
	var ll congest.Ledger
	res, err := sparselist.CongestedCliqueOnGraph(g, 3, 2, congest.UnitCosts(), &ll)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cliques.Cliques()); int64(got) != count {
		t.Fatalf("lister found %d triangles, counter says %d", got, count)
	}
	if lc.Rounds() >= ll.Rounds() {
		t.Errorf("dense graph: counting (%d rounds) should beat listing (%d rounds)", lc.Rounds(), ll.Rounds())
	}
}

func TestCommonNeighborCounts(t *testing.T) {
	// A diamond: 0-1-2-0, 0-3, 2-3 → edge {0,2} supports 2 triangles.
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3}})
	edges := g.Edges()
	counts := CommonNeighborCounts(g)
	var sum int64
	for i, e := range edges {
		if e == (graph.Edge{U: 0, V: 2}) && counts[i] != 2 {
			t.Errorf("edge {0,2} support = %d, want 2", counts[i])
		}
		sum += counts[i]
	}
	if sum != 3*g.CountCliques(3) {
		t.Errorf("supports sum to %d, want 3·triangles = %d", sum, 3*g.CountCliques(3))
	}
}

// Property: tr(A³)/6 equals enumeration for arbitrary random graphs.
func TestQuickAlgebraicCount(t *testing.T) {
	f := func(seed int64, densRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(60, float64(densRaw%90)/100.0, rng)
		var ledger congest.Ledger
		got, err := TriangleCountCC(g, congest.UnitCosts(), &ledger)
		if err != nil {
			return false
		}
		return got == g.CountCliques(3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
