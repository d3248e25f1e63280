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
