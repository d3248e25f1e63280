// Package integration cross-validates every listing algorithm in the
// repository against sequential ground truth and against each other, over
// a battery of workload families — the end-to-end safety net for the whole
// stack.
package integration

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kplist/internal/algebraic"
	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/core"
	"kplist/internal/graph"
	"kplist/internal/sparselist"
)

// workloads is the graph battery. Each family stresses a different part of
// the machinery: expanders (single all-covering cluster), communities
// (heavy/light classification), extremal clique-free graphs (max load,
// zero output), degenerate shapes (empty phases).
func workloads(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	planted, _ := graph.PlantedCliques(100, 6, 3, 0.06, rng)
	bipartite, _ := graph.BipartitePlusCliques(120, 0.4, 5, 2, rng)
	return map[string]*graph.Graph{
		"erdos-renyi-dense":  graph.ErdosRenyi(90, 0.4, rng),
		"erdos-renyi-sparse": graph.ErdosRenyi(120, 0.05, rng),
		"planted-cliques":    planted,
		"bipartite-planted":  bipartite,
		"noisy-turan":        graph.NoisyTuran(60, 3, 0.15, rng),
		"caveman":            graph.Caveman(5, 8),
		"barbell":            graph.Barbell(12, 4),
		"power-law":          graph.ChungLu(graph.PowerLawWeights(150, 2.5, 5), rng),
		"complete":           graph.Complete(20),
		"cycle":              graph.Cycle(40),
		"empty":              graph.MustNew(30, nil),
		"lower-bound-gadget": mustGadget(200, 300),
	}
}

func mustGadget(n, m int) *graph.Graph {
	g, _ := graph.LowerBoundGadget(n, m)
	return g
}

// TestAllAlgorithmsAgree runs every K4 lister on every workload and
// demands exact agreement with ground truth.
func TestAllAlgorithmsAgree(t *testing.T) {
	for name, g := range workloads(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			want := g.ListCliques(4)
			check := func(algo string, bag *graph.CliqueBag) {
				if got := bag.Cliques(); !slices.EqualFunc(got, want, slices.Equal) {
					t.Errorf("%s on %s: %d cliques, want %d", algo, name, len(got), len(want))
				}
			}
			var l1 congest.Ledger
			r1, err := core.ListCliques(g, core.Params{P: 4, Seed: 7}, congest.UnitCosts(), &l1)
			if err != nil {
				t.Fatalf("congest: %v", err)
			}
			check("congest", r1.Cliques)

			var l2 congest.Ledger
			r2, err := core.ListCliques(g, core.Params{P: 4, FastK4: true, Seed: 7}, congest.UnitCosts(), &l2)
			if err != nil {
				t.Fatalf("fastk4: %v", err)
			}
			check("fastk4", r2.Cliques)

			var l3 congest.Ledger
			r3, err := sparselist.CongestedCliqueOnGraph(g, 4, 7, congest.UnitCosts(), &l3)
			if err != nil {
				t.Fatalf("cclique: %v", err)
			}
			check("cclique", r3.Cliques)

			var l4 congest.Ledger
			if err := baseline.BroadcastList(g, 4, congest.UnitCosts(), &l4); err != nil {
				t.Fatalf("broadcast: %v", err)
			}
			r4 := graph.NewCliqueBag(4)
			g.VisitCliques(4, r4.Add)
			check("broadcast", r4)

			var l5 congest.Ledger
			r5, err := baseline.EdenK4List(g, baseline.EdenK4Params{Seed: 7}, congest.UnitCosts(), &l5)
			if err != nil {
				t.Fatalf("eden: %v", err)
			}
			check("eden", r5)
		})
	}
}

// TestHigherCliquesAgree covers p = 5 and 6 across the three general
// algorithms.
func TestHigherCliquesAgree(t *testing.T) {
	for name, g := range workloads(t) {
		g := g
		for p := 5; p <= 6; p++ {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				want := g.ListCliques(p)
				var l1 congest.Ledger
				r1, err := core.ListCliques(g, core.Params{P: p, Seed: 13}, congest.UnitCosts(), &l1)
				if err != nil {
					t.Fatalf("congest: %v", err)
				}
				if got := r1.Cliques.Cliques(); !slices.EqualFunc(got, want, slices.Equal) {
					t.Errorf("congest disagrees with ground truth: %d vs %d", len(got), len(want))
				}
				var l2 congest.Ledger
				r2, err := sparselist.CongestedCliqueOnGraph(g, p, 13, congest.UnitCosts(), &l2)
				if err != nil {
					t.Fatalf("cclique: %v", err)
				}
				if got := r2.Cliques.Cliques(); !slices.EqualFunc(got, want, slices.Equal) {
					t.Errorf("cclique disagrees with ground truth: %d vs %d", len(got), len(want))
				}
			})
		}
	}
}

// TestTriangleRoutesAgree: the algebraic counter, the CC lister, and the
// sequential enumerator give the same triangle count everywhere.
func TestTriangleRoutesAgree(t *testing.T) {
	for name, g := range workloads(t) {
		var lc congest.Ledger
		count, err := algebraic.TriangleCountCC(g, congest.UnitCosts(), &lc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != g.CountCliques(3) {
			t.Errorf("%s: algebraic %d vs enumeration %d", name, count, g.CountCliques(3))
		}
		var ll congest.Ledger
		res, err := sparselist.CongestedCliqueOnGraph(g, 3, 5, congest.UnitCosts(), &ll)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(res.Cliques.Cliques()); int64(got) != count {
			t.Errorf("%s: lister %d vs counter %d", name, got, count)
		}
	}
}

// TestDeterminismAcrossRuns: identical seeds give identical bills and
// outputs for the full pipeline.
func TestDeterminismAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(100, 0.35, rng)
	run := func() (int64, int64, int) {
		var ledger congest.Ledger
		res, err := core.ListCliques(g, core.Params{P: 4, Seed: 21}, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatal(err)
		}
		return ledger.Rounds(), ledger.Messages(), len(res.Cliques.Cliques())
	}
	r1, m1, c1 := run()
	r2, m2, c2 := run()
	if r1 != r2 || m1 != m2 || c1 != c2 {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, m1, c1, r2, m2, c2)
	}
}

// TestPaperCostModelMonotone: switching on the paper's log factors never
// reduces any algorithm's bill.
func TestPaperCostModelMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(90, 0.35, rng)
	for _, tc := range []struct {
		name string
		run  func(cm congest.CostModel) (int64, error)
	}{
		{"congest", func(cm congest.CostModel) (int64, error) {
			var l congest.Ledger
			_, err := core.ListCliques(g, core.Params{P: 4, Seed: 3}, cm, &l)
			return l.Rounds(), err
		}},
		{"cclique", func(cm congest.CostModel) (int64, error) {
			var l congest.Ledger
			_, err := sparselist.CongestedCliqueOnGraph(g, 4, 3, cm, &l)
			return l.Rounds(), err
		}},
		{"eden", func(cm congest.CostModel) (int64, error) {
			var l congest.Ledger
			_, err := baseline.EdenK4List(g, baseline.EdenK4Params{Seed: 3}, cm, &l)
			return l.Rounds(), err
		}},
	} {
		unit, err := tc.run(congest.UnitCosts())
		if err != nil {
			t.Fatalf("%s unit: %v", tc.name, err)
		}
		paper, err := tc.run(congest.PaperCosts())
		if err != nil {
			t.Fatalf("%s paper: %v", tc.name, err)
		}
		if paper < unit {
			t.Errorf("%s: paper bill %d below unit bill %d", tc.name, paper, unit)
		}
	}
}
