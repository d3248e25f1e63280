package graph_test

import (
	"slices"
	"testing"

	"kplist"
	"kplist/internal/graph"
)

// TestPeelOnceAcrossSessions is the serving half of the peel-once canary:
// a graph is peeled at most once in its life, and a second session on it
// plus a CONGEST query whose final phase lists on the graph itself build
// no kernel and run no peel.
func TestPeelOnceAcrossSessions(t *testing.T) {
	peels := graph.Peels()
	inst, err := kplist.GenerateWorkload(kplist.WorkloadSpec{Family: kplist.WorkloadStochasticBlock, N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	q := kplist.Query{P: 4, Algo: kplist.AlgoCONGEST, Seed: 1}
	query := func() *kplist.Result {
		s := kplist.NewSession(g, kplist.SessionConfig{})
		defer s.Close()
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	builds := graph.KernelBuilds()
	first := query()
	if first.OuterIterations != 0 {
		t.Fatalf("OuterIterations = %d: the final phase must run on the registered graph for this canary", first.OuterIterations)
	}
	if d := graph.KernelBuilds() - builds; d != 1 {
		t.Fatalf("first session and query built %d kernels, want 1", d)
	}
	if d := graph.Peels() - peels; d != 1 {
		t.Fatalf("generating, opening and querying the graph peeled it %d times, want 1", d)
	}

	builds, peels = graph.KernelBuilds(), graph.Peels()
	second := query()
	if d := graph.KernelBuilds() - builds; d != 0 {
		t.Errorf("second session and query built %d kernels, want 0", d)
	}
	if d := graph.Peels() - peels; d != 0 {
		t.Errorf("second session and query peeled %d times, want 0", d)
	}
	if !slices.EqualFunc(first.Cliques, second.Cliques, slices.Equal) ||
		first.Rounds != second.Rounds || first.Messages != second.Messages {
		t.Error("the memo-hit query differs from the first")
	}
}

// TestCongestedCliqueKernelOnce is the congested-clique half of the
// canary: the Theorem 1.3 lister lists on the graph's own memoized kernel,
// so its first run on a graph builds that one kernel and a second run on
// the same graph builds no kernel and runs no peel.
func TestCongestedCliqueKernelOnce(t *testing.T) {
	inst, err := kplist.GenerateWorkload(kplist.WorkloadSpec{Family: kplist.WorkloadPlantedClique, N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.G
	list := func() *kplist.Result {
		res, err := kplist.ListCongestedClique(g, 3, kplist.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	builds := graph.KernelBuilds()
	first := list()
	if d := graph.KernelBuilds() - builds; d != 1 {
		t.Fatalf("first congested-clique run built %d kernels, want 1 (the graph's own)", d)
	}
	builds, peels := graph.KernelBuilds(), graph.Peels()
	second := list()
	if d := graph.KernelBuilds() - builds; d != 0 {
		t.Errorf("second congested-clique run built %d kernels, want 0", d)
	}
	if d := graph.Peels() - peels; d != 0 {
		t.Errorf("second congested-clique run peeled %d times, want 0", d)
	}
	if len(first.Cliques) == 0 || !slices.EqualFunc(first.Cliques, second.Cliques, slices.Equal) ||
		first.Rounds != second.Rounds || first.Messages != second.Messages {
		t.Error("the second run differs from the first, or lists nothing")
	}
}

// TestArbListPeelOnce is the ARB-LIST half of the canary: the first pass
// of a CONGEST query's LIST works on the registered graph itself, whose
// peel is memoized, so a query with one outer iteration peels only the
// leftover graph its final phase lists on.
func TestArbListPeelOnce(t *testing.T) {
	for _, family := range []string{kplist.WorkloadKronecker, kplist.WorkloadPlantedClique} {
		inst, err := kplist.GenerateWorkload(kplist.WorkloadSpec{Family: family, N: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := inst.G
		g.Degeneracy() // the registered graph's own peel, done once
		peels := graph.Peels()
		res, err := kplist.ListCONGEST(g, 4, kplist.Options{Seed: 1, FinalExponent: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if res.OuterIterations != 1 {
			t.Fatalf("%s: OuterIterations = %d, want 1 for this canary", family, res.OuterIterations)
		}
		if d := graph.Peels() - peels; d != 1 {
			t.Errorf("%s: the query peeled %d graphs, want 1 (the leftover graph)", family, d)
		}
	}
}
