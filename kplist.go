// Package kplist is a Go implementation of "On Distributed Listing of
// Cliques" (Censor-Hillel, Le Gall, Leitersdorf — PODC 2020): sub-linear
// round CONGEST algorithms for listing Kp for every p ≥ 4, the Õ(n^{2/3})
// K4 variant, and the sparsity-aware Θ̃(1 + m/n^{1+2/p}) CONGESTED CLIQUE
// lister for every p ≥ 3.
//
// The package executes the algorithms over a simulated synchronous
// message-passing substrate: data genuinely moves between per-node states
// (outputs are exact and verified against sequential enumeration), and
// every communication phase charges a round ledger according to the
// CONGEST cost model (see DESIGN.md §5). Use the Result's Rounds/Phases to
// study the round complexity, and Cliques for the actual listing.
//
// Quick start:
//
//	g, _ := kplist.NewGraph(5, []kplist.Edge{{U:0,V:1},{U:0,V:2},{U:0,V:3},
//		{U:1,V:2},{U:1,V:3},{U:2,V:3},{U:3,V:4}})
//	res, err := kplist.ListCONGEST(g, 4, kplist.Options{})
//	// res.Cliques == [[0 1 2 3]], res.Rounds = the CONGEST bill
//
// To serve many queries against one graph, open a Session: the shared
// preprocessing (degree order) runs once, queries flow through a bounded
// scheduler, and repeated queries hit a keyed result cache:
//
//	inst, _ := kplist.GenerateWorkload(
//		kplist.DefaultWorkloadSpec(kplist.WorkloadPlantedClique, 200, 42))
//	s := kplist.NewSession(inst.G, kplist.SessionConfig{MaxConcurrent: 4})
//	defer s.Close()
//	for _, br := range s.QueryBatch([]kplist.Query{{P: 4}, {P: 5}, {P: 4}}) {
//		// br.Result, br.Err; the second {P: 4} is a cache hit
//	}
//
// GenerateWorkload is the scenario-generator subsystem: seeded graph
// families (power-law, planted cliques, bipartite, stochastic block,
// Kronecker, grids) with guaranteed structural properties — see
// DESIGN.md §6.
//
// Session.QueryContext threads a context into the engine run loops
// (cancellation is honored between engine rounds), and request-level
// failures wrap the typed sentinels ErrInvalidQuery, ErrUnknownEngine,
// ErrUnknownFamily and ErrSessionClosed. cmd/kplistd serves all of this
// over HTTP — multi-tenant registry, LRU session pool, admission control,
// NDJSON streaming — see DESIGN.md §7.
package kplist

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/core"
	"kplist/internal/graph"
	"kplist/internal/sparselist"
)

// Graph is an immutable undirected simple graph; see NewGraph.
type Graph = graph.Graph

// Edge is an undirected edge {U, V}.
type Edge = graph.Edge

// Clique is a sorted list of vertex IDs forming a clique.
type Clique = graph.Clique

// PhaseCost is one named phase's share of the round/message bill.
type PhaseCost = congest.PhaseCost

// V is a vertex identifier.
type V = graph.V

// NewGraph builds a graph with n vertices from an edge list; duplicate
// edges and self-loops are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// ErdosRenyi samples G(n, p) with the given seed.
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	return graph.ErdosRenyi(n, p, rand.New(rand.NewSource(seed)))
}

// GNM samples a uniform graph with exactly m edges.
func GNM(n, m int, seed int64) *Graph {
	return graph.GNM(n, m, rand.New(rand.NewSource(seed)))
}

// PlantedCliques overlays vertex-disjoint k-cliques on a sparse background
// and returns the graph plus the planted cliques.
func PlantedCliques(n, k, count int, bgProb float64, seed int64) (*Graph, []Clique) {
	g, planted := graph.PlantedCliques(n, k, count, bgProb, rand.New(rand.NewSource(seed)))
	out := make([]Clique, len(planted))
	for i, c := range planted {
		out[i] = Clique(c)
	}
	return g, out
}

// Complete returns K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Options configures a listing run.
type Options struct {
	// Seed drives all randomness (decomposition starts, partitions).
	// Runs are deterministic given a seed.
	Seed int64
	// FastK4 selects the Theorem 1.2 Õ(n^{2/3}) variant; only valid with
	// p = 4 in ListCONGEST.
	FastK4 bool
	// Paranoid enables internal invariant checking after every phase.
	Paranoid bool
	// PaperCosts charges explicit log-factors for the Õ(·) terms instead
	// of the default structural (polylog = 1) model used for exponent
	// fitting.
	PaperCosts bool
	// FinalExponent overrides the outer loop's stopping exponent
	// (default max(3/4, p/(p+2)), or 2/3 under FastK4).
	FinalExponent float64
	// Workers bounds the host goroutines ListCONGEST uses to simulate
	// the per-cluster work the paper runs in parallel; the congested
	// clique and broadcast listers ignore it. 0 means GOMAXPROCS, 1
	// forces sequential simulation; results and round bills are
	// identical for every value — only wall-clock changes.
	Workers int
}

func (o Options) costModel() congest.CostModel {
	if o.PaperCosts {
		return congest.PaperCosts()
	}
	return congest.UnitCosts()
}

// Result carries a listing outcome plus its communication bill.
type Result struct {
	// Cliques is the exact set of Kp instances, sorted lexicographically
	// with no duplicates: sub-slices of one backing array, each capped at
	// its length. It is never nil, so an empty listing encodes as [].
	Cliques []Clique
	// Rounds is the total CONGEST round bill.
	Rounds int64
	// Messages is the total word count moved.
	Messages int64
	// Phases breaks the bill down by algorithm phase.
	Phases []PhaseCost
	// OuterIterations is the number of arboricity-halving passes
	// (ListCONGEST only).
	OuterIterations int
	// ArboricityLadder traces the arboricity bound per outer pass
	// (ListCONGEST only).
	ArboricityLadder []int
}

// newResult turns an engine's clique bag into the result's sorted,
// duplicate-free listing: the only sort an engine run pays for.
func newResult(bag *graph.CliqueBag, ledger *congest.Ledger) *Result {
	return &Result{
		Cliques:  bag.Cliques(),
		Rounds:   ledger.Rounds(),
		Messages: ledger.Messages(),
		Phases:   ledger.Phases(),
	}
}

// ListCONGEST lists every Kp of g in the CONGEST model using the paper's
// main pipeline: Theorem 1.1 for p ≥ 4, or Theorem 1.2 when opt.FastK4 is
// set (p must be 4). The result's Rounds follow the Õ(n^{3/4} + n^{p/(p+2)})
// (resp. Õ(n^{2/3})) bill.
func ListCONGEST(g *Graph, p int, opt Options) (*Result, error) {
	return listCONGESTContext(context.Background(), g, p, opt)
}

// listCONGESTContext is ListCONGEST under a context; the Session serving
// path uses it so cancelled queries stop between engine rounds.
func listCONGESTContext(ctx context.Context, g *Graph, p int, opt Options) (*Result, error) {
	if p < 4 {
		return nil, fmt.Errorf("%w: ListCONGEST requires p ≥ 4 (Theorem 1.1); use ListCongestedClique or ListBroadcast for p = 3", ErrInvalidQuery)
	}
	var ledger congest.Ledger
	res, err := core.ListCliques(g, core.Params{
		Ctx:           ctx,
		P:             p,
		FastK4:        opt.FastK4,
		Seed:          opt.Seed,
		Paranoid:      opt.Paranoid,
		FinalExponent: opt.FinalExponent,
		Workers:       opt.Workers,
	}, opt.costModel(), &ledger)
	if err != nil {
		return nil, err
	}
	out := newResult(res.Cliques, &ledger)
	out.OuterIterations = res.OuterIterations
	out.ArboricityLadder = res.ArboricityLadder
	return out, nil
}

// ListCongestedClique lists every Kp of g in the CONGESTED CLIQUE model
// using the sparsity-aware algorithm of Theorem 1.3: Θ̃(1 + m/n^{1+2/p})
// rounds, for every p ≥ 3.
func ListCongestedClique(g *Graph, p int, opt Options) (*Result, error) {
	return listCongestedCliqueContext(context.Background(), g, p, opt)
}

func listCongestedCliqueContext(ctx context.Context, g *Graph, p int, opt Options) (*Result, error) {
	var ledger congest.Ledger
	res, err := sparselist.CongestedCliqueOnGraphCtx(ctx, g, p, opt.Seed, opt.costModel(), &ledger)
	if err != nil {
		return nil, err
	}
	return newResult(res.Cliques, &ledger), nil
}

// ListBroadcast lists every Kp with the trivial Θ̃(n)-round broadcast
// algorithm (Remark 2.6) — the baseline every sub-linear result is
// measured against.
func ListBroadcast(g *Graph, p int, opt Options) (*Result, error) {
	return listBroadcastContext(context.Background(), g, p, opt)
}

func listBroadcastContext(ctx context.Context, g *Graph, p int, opt Options) (*Result, error) {
	// The broadcast baseline is a single round-batch (broadcast + local
	// enumeration), so the only cancellation point is before it starts.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ledger congest.Ledger
	bag := graph.NewCliqueBag(p)
	if err := baseline.BroadcastList(g, opt.costModel(), &ledger, bag); err != nil {
		return nil, err
	}
	return newResult(bag, &ledger), nil
}

// ListEdenK4 lists every K4 with the (simplified) previous
// state-of-the-art algorithm of Eden et al. (DISC 2019) — the E4
// comparison baseline.
func ListEdenK4(g *Graph, opt Options) (*Result, error) {
	var ledger congest.Ledger
	bag, err := baseline.EdenK4List(g, baseline.EdenK4Params{Seed: opt.Seed}, opt.costModel(), &ledger)
	if err != nil {
		return nil, err
	}
	return newResult(bag, &ledger), nil
}

// GroundTruth lists every Kp exactly (no simulation, no bill) — the
// reference the distributed outputs are compared against. It runs on the
// enumeration kernel (flat CSR of the degeneracy DAG, zero-allocation
// recursion, parallel root fan-out; DESIGN.md §8); output is sorted
// lexicographically and byte-identical for every level of host
// parallelism.
func GroundTruth(g *Graph, p int) []Clique { return g.ListCliques(p) }

// GroundTruthCount counts Kp instances without materializing them — the
// kernel's counting mode skips clique emission entirely, so it is the
// cheapest exact census available.
func GroundTruthCount(g *Graph, p int) int64 { return g.CountCliques(p) }

// Verify checks that cliques is exactly the set of Kp instances of g,
// returning a descriptive error on the first discrepancy. The order of
// the cliques and of the vertices within each does not matter, nor do
// repeats; a clique of the wrong size or with a vertex outside [0, n)
// counts as spurious.
func Verify(g *Graph, p int, cliques []Clique) error {
	var bad []Clique // wrong size or out of range, in input order
	bag := graph.NewCliqueBag(p)
	for _, c := range cliques {
		if len(c) != p || p < 1 || slices.ContainsFunc(c, func(v V) bool { return v < 0 || int(v) >= g.N() }) {
			bad = append(bad, c)
			continue
		}
		c = slices.Clone(c)
		slices.Sort(c)
		bag.Add(c)
	}
	got, want := bag.Cliques(), g.ListCliques(p)
	has := func(sorted []Clique, c Clique) bool {
		_, ok := slices.BinarySearchFunc(sorted, c, slices.Compare)
		return ok
	}
	var missing []Clique
	for _, c := range want {
		if !has(got, c) {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("kplist: %d cliques missing (first: %v)", len(missing), missing[0])
	}
	for _, c := range got {
		if !has(want, c) {
			bad = append(bad, c)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("kplist: %d spurious cliques (first: %v)", len(bad), bad[0])
	}
	return nil
}
