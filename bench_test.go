// Benchmarks: one testing.B target per paper artefact (DESIGN.md §4).
// Each benchmark executes the full simulated algorithm and reports the
// charged CONGEST rounds as a custom metric alongside wall-clock cost.
// cmd/benchrunner regenerates the full sweep tables recorded in
// EXPERIMENTS.md; these targets pin each experiment at a representative
// point so `go test -bench=.` exercises every code path.
package kplist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kplist/internal/arblist"
	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/core"
	"kplist/internal/expander"
	"kplist/internal/graph"
	"kplist/internal/sparselist"
	"kplist/internal/workload"
)

// benchGraphCONGEST is the community workload at a representative size.
func benchGraphCONGEST() (*graph.Graph, int) {
	rng := rand.New(rand.NewSource(1))
	const n, pocketSize = 384, 64
	density := 0.7
	var edges []graph.Edge
	base := 0
	for c := 0; c < 4; c++ {
		sub := graph.RandomBipartite(pocketSize, density, rng)
		for _, e := range sub.Edges() {
			edges = append(edges, graph.Edge{U: e.U + graph.V(base), V: e.V + graph.V(base)})
		}
		base += pocketSize
	}
	for v := base; v < n; v++ {
		lo := rng.Intn(4) * pocketSize
		deg := 3
		if v%3 == 0 {
			deg = 9
		}
		for i := 0; i < deg; i++ {
			edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(lo + rng.Intn(pocketSize))})
		}
	}
	g := graph.MustNew(n, edges)
	return g, int(density * float64(pocketSize) / 4)
}

// BenchmarkE1_Thm11_KpCongest: Theorem 1.1 pipeline per clique size.
func BenchmarkE1_Thm11_KpCongest(b *testing.B) {
	g, thr := benchGraphCONGEST()
	for _, p := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			if testing.Short() && p > 5 {
				b.Skip("skipping the largest clique size in -short mode")
			}
			var rounds int64
			for i := 0; i < b.N; i++ {
				var ledger congest.Ledger
				_, err := core.ListCliques(g, core.Params{
					P: p, Seed: 1, FinalExponent: 0.4, ClusterThreshold: thr,
				}, congest.UnitCosts(), &ledger)
				if err != nil {
					b.Fatal(err)
				}
				rounds = ledger.Rounds()
			}
			b.ReportMetric(float64(rounds), "congest-rounds")
		})
	}
}

// BenchmarkE2_Thm12_K4Fast: fast-K4 (Theorem 1.2) vs the general pipeline.
func BenchmarkE2_Thm12_K4Fast(b *testing.B) {
	g, thr := benchGraphCONGEST()
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"general", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				var ledger congest.Ledger
				_, err := core.ListCliques(g, core.Params{
					P: 4, FastK4: mode.fast, Seed: 1, FinalExponent: 0.4, ClusterThreshold: thr,
				}, congest.UnitCosts(), &ledger)
				if err != nil {
					b.Fatal(err)
				}
				rounds = ledger.Rounds()
			}
			b.ReportMetric(float64(rounds), "congest-rounds")
		})
	}
}

// BenchmarkE3_Thm13_CongestedClique: the sparsity-aware lister below and
// above the m ≈ n^{1+2/p} crossover.
func BenchmarkE3_Thm13_CongestedClique(b *testing.B) {
	const n = 256
	for _, tc := range []struct {
		p int
		m int
	}{{3, 2000}, {3, 16000}, {4, 2000}, {4, 8000}, {5, 2000}} {
		b.Run(fmt.Sprintf("p=%d/m=%d", tc.p, tc.m), func(b *testing.B) {
			if testing.Short() && tc.m > 8000 {
				b.Skip("skipping the densest sweep point in -short mode")
			}
			g := graph.GNM(n, tc.m, rand.New(rand.NewSource(3)))
			var rounds int64
			for i := 0; i < b.N; i++ {
				var ledger congest.Ledger
				_, err := sparselist.CongestedCliqueOnGraph(g, tc.p, 3, 0, congest.UnitCosts(), &ledger)
				if err != nil {
					b.Fatal(err)
				}
				rounds = ledger.Rounds()
			}
			b.ReportMetric(float64(rounds), "cc-rounds")
		})
	}
}

// BenchmarkE4_Comparison: this paper vs the Eden-style baseline vs the
// trivial broadcast, all listing K4 on the same graph.
func BenchmarkE4_Comparison(b *testing.B) {
	g, thr := benchGraphCONGEST()
	b.Run("ours-fastk4", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var ledger congest.Ledger
			if _, err := core.ListCliques(g, core.Params{
				P: 4, FastK4: true, Seed: 1, FinalExponent: 0.4, ClusterThreshold: thr,
			}, congest.UnitCosts(), &ledger); err != nil {
				b.Fatal(err)
			}
			rounds = ledger.Rounds()
		}
		b.ReportMetric(float64(rounds), "congest-rounds")
	})
	b.Run("eden-style", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var ledger congest.Ledger
			if _, err := baseline.EdenK4List(g, baseline.EdenK4Params{
				Seed: 1, ClusterThreshold: thr,
			}, congest.UnitCosts(), &ledger); err != nil {
				b.Fatal(err)
			}
			rounds = ledger.Rounds()
		}
		b.ReportMetric(float64(rounds), "congest-rounds")
	})
	b.Run("broadcast", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			var ledger congest.Ledger
			if _, err := baseline.BroadcastListGraph(g, 4, congest.UnitCosts(), &ledger); err != nil {
				b.Fatal(err)
			}
			rounds = ledger.Rounds()
		}
		b.ReportMetric(float64(rounds), "congest-rounds")
	})
}

// BenchmarkE5_LowerBoundGap: proximity of the measured bill to the
// Ω̃(n^{(p-2)/p}) lower bound at the benchmark point.
func BenchmarkE5_LowerBoundGap(b *testing.B) {
	g, thr := benchGraphCONGEST()
	n := float64(g.N())
	for _, p := range []int{4, 6} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			if testing.Short() && p > 4 {
				b.Skip("skipping the largest clique size in -short mode")
			}
			var gap float64
			for i := 0; i < b.N; i++ {
				var ledger congest.Ledger
				if _, err := core.ListCliques(g, core.Params{
					P: p, Seed: 1, FinalExponent: 0.4, ClusterThreshold: thr,
				}, congest.UnitCosts(), &ledger); err != nil {
					b.Fatal(err)
				}
				lb := math.Pow(n, float64(p-2)/float64(p))
				gap = float64(ledger.Rounds()) / lb
			}
			b.ReportMetric(gap, "rounds/LB")
		})
	}
}

// BenchmarkE6_IterativeDecay: one LIST run, reporting the number of
// ARB-LIST passes needed to exhaust Er (the ×4 decay law).
func BenchmarkE6_IterativeDecay(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(240, 0.4, rng)
	el := graph.NewEdgeList(g.Edges())
	var passes int
	for i := 0; i < b.N; i++ {
		var ledger congest.Ledger
		res, err := arblist.List(g.N(), el, arblist.Params{P: 4, Seed: 5}, congest.UnitCosts(), &ledger)
		if err != nil {
			b.Fatal(err)
		}
		passes = res.Iterations
	}
	b.ReportMetric(float64(passes), "arb-passes")
}

// BenchmarkE7_Ablations: bad-edge delaying on vs off (max edges brought
// into a single cluster node).
func BenchmarkE7_Ablations(b *testing.B) {
	g, thr := benchGraphCONGEST()
	el := graph.NewEdgeList(g.Edges())
	for _, mode := range []struct {
		name string
		bad  int
	}{{"delay-on", 0}, {"delay-off", 1 << 30}} {
		b.Run(mode.name, func(b *testing.B) {
			var maxLearned int64
			for i := 0; i < b.N; i++ {
				var ledger congest.Ledger
				res, err := arblist.ArbList(g.N(), nil, nil, el, arblist.Params{
					P: 4, Seed: 1, BadThreshold: mode.bad, ClusterThreshold: thr,
				}, congest.UnitCosts(), &ledger)
				if err != nil {
					b.Fatal(err)
				}
				maxLearned = res.Stats.MaxLearned
			}
			b.ReportMetric(float64(maxLearned), "max-learned")
		})
	}
}

// BenchmarkWorkloadGenerate pins the generator subsystem's throughput per
// family at a representative size.
func BenchmarkWorkloadGenerate(b *testing.B) {
	for _, family := range workload.Families() {
		b.Run(family, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Generate(workload.DefaultSpec(family, 512, int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionServe pins the Session serving path: "miss" pays one full
// listing execution per iteration (fresh seed defeats the cache), "hit"
// measures the cached fast path a warm serving tier actually runs.
func BenchmarkSessionServe(b *testing.B) {
	inst := workload.MustGenerate(workload.DefaultSpec(workload.FamilyPlantedClique, 192, 1))
	b.Run("miss", func(b *testing.B) {
		s := NewSession(inst.G, SessionConfig{})
		defer s.Close()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(Query{P: 4, Algo: AlgoCongestedClique, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewSession(inst.G, SessionConfig{})
		defer s.Close()
		if _, err := s.Query(Query{P: 4, Algo: AlgoCongestedClique}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(Query{P: 4, Algo: AlgoCongestedClique}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates pins the hot substrate paths so regressions in the
// simulator itself are visible independently of the algorithms.
func BenchmarkSubstrates(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.ErdosRenyi(400, 0.1, rng)
	el := graph.NewEdgeList(g.Edges())
	b.Run("degeneracy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Degeneracy()
		}
	})
	b.Run("clique-enum-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.CountCliques(4)
		}
	})
	b.Run("expander-decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var ledger congest.Ledger
			if _, err := expander.Decompose(g.N(), el, expander.Params{Threshold: 8, Seed: int64(i)},
				congest.UnitCosts(), &ledger); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionColdQuery is the serving cold path the node-read-cold
// workload exercises: each op opens a fresh Session per graph (so no
// result is cached) and runs that workload's four engine queries — CONGEST
// p=4, fast K4, congested clique p=3 and CONGEST p=5 — on small graphs of
// its four families. Engine listing, bag merge and the one sort per
// result dominate.
func BenchmarkSessionColdQuery(b *testing.B) {
	var graphs []*Graph
	for i, fam := range []string{WorkloadStochasticBlock, WorkloadPlantedClique,
		WorkloadBarabasiAlbert, WorkloadKronecker} {
		inst, err := GenerateWorkload(WorkloadSpec{Family: fam, N: 256, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, inst.G)
	}
	keys := []Query{
		{P: 4, Algo: AlgoCONGEST, Seed: 1},
		{P: 4, Algo: AlgoFastK4, Seed: 1},
		{P: 3, Algo: AlgoCongestedClique, Seed: 1},
		{P: 5, Algo: AlgoCONGEST, Seed: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			s := NewSession(g, SessionConfig{})
			for _, q := range keys {
				if _, err := s.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
		}
	}
}
