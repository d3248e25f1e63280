package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

func TestBroadcastListExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{3, 4, 5} {
		g := graph.ErdosRenyi(80, 0.3, rng)
		var ledger congest.Ledger
		got := graph.NewCliqueBag(p)
		if err := BroadcastList(g, congest.UnitCosts(), &ledger, got); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got, want := got.Cliques(), g.ListCliques(p); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("p=%d: got %d cliques, want %d", p, len(got), len(want))
		}
		// Bill: rounds = max out-degree of the degeneracy orientation.
		wantRounds := int64(g.DegeneracyOrientation().MaxOutDegree())
		if gotRounds := ledger.Phase("broadcast-listing").Rounds; gotRounds != wantRounds {
			t.Errorf("p=%d: rounds = %d, want %d", p, gotRounds, wantRounds)
		}
	}
}

func TestBroadcastListEmptyAndErrors(t *testing.T) {
	var ledger congest.Ledger
	empty := graph.MustNew(5, nil)
	got := graph.NewCliqueBag(3)
	if err := BroadcastList(empty, congest.UnitCosts(), &ledger, got); err != nil || len(got.Cliques()) != 0 {
		t.Errorf("empty: %v, %d cliques", err, len(got.Cliques()))
	}
	if err := BroadcastList(empty, congest.UnitCosts(), &ledger, graph.NewCliqueBag(1)); err == nil {
		t.Error("p=1 should error")
	}
}

func TestBroadcastListRoundsScaleWithDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sparse := graph.ErdosRenyi(200, 0.05, rng)
	dense := graph.ErdosRenyi(200, 0.5, rng)
	var l1, l2 congest.Ledger
	if err := BroadcastList(sparse, congest.UnitCosts(), &l1, graph.NewCliqueBag(4)); err != nil {
		t.Fatal(err)
	}
	if err := BroadcastList(dense, congest.UnitCosts(), &l2, graph.NewCliqueBag(4)); err != nil {
		t.Fatal(err)
	}
	if l2.Rounds() <= l1.Rounds() {
		t.Errorf("dense broadcast (%d rounds) should cost more than sparse (%d)", l2.Rounds(), l1.Rounds())
	}
}

func TestEdenK4Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dens := range []float64{0.2, 0.4} {
		g := graph.ErdosRenyi(120, dens, rng)
		var ledger congest.Ledger
		got, err := EdenK4List(g, EdenK4Params{Seed: 3}, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("EdenK4List: %v", err)
		}
		if got, want := got.Cliques(), g.ListCliques(4); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("dens=%v: got %d cliques, want %d", dens, len(got), len(want))
		}
		if ledger.Rounds() == 0 {
			t.Error("no rounds charged")
		}
	}
}

func TestEdenK4EmptyGraph(t *testing.T) {
	var ledger congest.Ledger
	got, err := EdenK4List(graph.MustNew(0, nil), EdenK4Params{}, congest.UnitCosts(), &ledger)
	if err != nil || len(got.Cliques()) != 0 {
		t.Errorf("empty graph: %v, %d", err, len(got.Cliques()))
	}
}

func TestEdenK4WithClusters(t *testing.T) {
	// Force clusters with a small explicit threshold so the heavy/light
	// machinery actually runs.
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(140, 0.4, rng)
	var ledger congest.Ledger
	got, err := EdenK4List(g, EdenK4Params{ClusterThreshold: 6, Seed: 4}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("EdenK4List: %v", err)
	}
	if got, want := got.Cliques(), g.ListCliques(4); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("got %d cliques, want %d", len(got), len(want))
	}
	if ledger.Phase("eden-naive-listing").Rounds == 0 {
		t.Error("naive listing not billed — clusters did not form?")
	}
}

func TestEdenPlantedCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, planted := graph.PlantedCliques(130, 4, 5, 0.05, rng)
	var ledger congest.Ledger
	got, err := EdenK4List(g, EdenK4Params{ClusterThreshold: 5, Seed: 5}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	listed := got.Cliques()
	for _, c := range planted {
		if _, ok := slices.BinarySearchFunc(listed, graph.Clique(c), slices.Compare); !ok {
			t.Errorf("planted K4 %v missing", c)
		}
	}
}
