package baseline

import (
	"fmt"
	"math"
	"sort"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
	"kplist/internal/routing"
)

// EdenK4Params configures the Eden-et-al-style K4 baseline.
type EdenK4Params struct {
	// HeavyThreshold is the in-cluster-degree cutoff for heavy outside
	// nodes; 0 derives ceil(sqrt(n)).
	HeavyThreshold int
	// ClusterThreshold is the decomposition peel threshold; 0 derives
	// n^{5/6}/(2·log2 n) per their parameterization, clamped ≥ 1.
	ClusterThreshold int
	// Seed drives the decomposition.
	Seed int64
	// MaxIterations caps the Er loop; 0 means 4·log2(n)+8.
	MaxIterations int
}

// EdenK4List is a faithful-in-structure, simplified implementation of the
// previous state of the art for K4 listing (Eden, Fiat, Fischer, Kuhn,
// Oshman — DISC 2019), used as the E4 comparison baseline:
//
//   - expander-decompose the leftover set, iterate until it is exhausted;
//   - C-heavy outside nodes send their ENTIRE neighborhood into the
//     cluster (this is the key structural difference from the paper under
//     reproduction, whose heavy nodes send only their ≤ arboricity
//     outgoing edges);
//   - C-light outside nodes list the K4s they share with the cluster
//     themselves;
//   - the in-cluster listing is naive — a designated collector learns
//     every edge known to the cluster — rather than sparsity-aware.
//
// The simplifications (documented in DESIGN.md) preserve the cost
// structure that makes the baseline Ω(n^{5/6})-shaped: full-neighborhood
// imports and non-sparsity-aware listing.
//
// The returned bag holds every K4, appended cluster by cluster and then by
// the final phase, so a K4 may appear more than once; Cliques() dedups.
func EdenK4List(g *graph.Graph, prm EdenK4Params, cm congest.CostModel, ledger *congest.Ledger) (*graph.CliqueBag, error) {
	n := g.N()
	if n == 0 {
		return graph.NewCliqueBag(4), nil
	}
	if prm.HeavyThreshold <= 0 {
		prm.HeavyThreshold = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if prm.ClusterThreshold <= 0 {
		t := int(math.Pow(float64(n), 5.0/6) / (2 * float64(congest.Log2Ceil(n))))
		if t < 1 {
			t = 1
		}
		prm.ClusterThreshold = t
	}
	maxIter := prm.MaxIterations
	if maxIter <= 0 {
		maxIter = int(4*congest.Log2Ceil(n)) + 8
	}

	cliques := graph.NewCliqueBag(4)
	er := graph.NewEdgeList(g.Edges())
	var esAll graph.EdgeList
	for iter := 0; len(er) > 0 && iter < maxIter; iter++ {
		decomp, err := expander.Decompose(n, er, expander.Params{
			Threshold: prm.ClusterThreshold,
			Seed:      prm.Seed + int64(iter)*104729,
		}, cm, ledger)
		if err != nil {
			return nil, fmt.Errorf("baseline: eden decomposition: %w", err)
		}
		local := &congest.Ledger{}
		for _, cl := range decomp.Clusters {
			if err := edenCluster(n, g, cl, prm.HeavyThreshold, cm, local, cliques); err != nil {
				return nil, fmt.Errorf("baseline: eden cluster %d: %w", cl.ID, err)
			}
		}
		ledger.Merge(local)
		esAll = graph.Union(esAll, decomp.Es)
		if len(decomp.Er) >= len(er) {
			er = decomp.Er
			break
		}
		er = decomp.Er
	}
	// Remaining sparse edges (Es accumulation plus any stuck Er) get the
	// trivial treatment, as in their final phase.
	rest := graph.Union(esAll, er)
	if len(rest) > 0 {
		restGraph, err := rest.Graph(n)
		if err != nil {
			return nil, err
		}
		got, err := BroadcastList(n, rest, restGraph.DegeneracyOrientation(), 4, cm, ledger)
		if err != nil {
			return nil, err
		}
		cliques.AddBag(got)
	}
	// The per-cluster passes above over-approximate: intersect against
	// reality is unnecessary (all edges checked against g), but cliques
	// spanning removed Em edges across iterations are covered because each
	// cluster listed everything it knew at removal time.
	return cliques, nil
}

// edenCluster processes one cluster in the Eden style.
func edenCluster(n int, g *graph.Graph, cl *expander.Cluster, heavyThr int,
	cm congest.CostModel, local *congest.Ledger, cliques *graph.CliqueBag) error {
	gvC := make(map[graph.V][]graph.V)
	var boundaryWords int64
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			if !cl.Contains(x) {
				gvC[x] = append(gvC[x], u)
				boundaryWords++
			}
		}
	}
	local.ChargeMax("eden-classify", 1, boundaryWords)

	// Heavy nodes send their ENTIRE neighborhood into the cluster.
	known := make(graph.EdgeList, 0, len(cl.Edges)*2)
	known = append(known, cl.Edges...)
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			known = append(known, graph.Edge{U: u, V: x}.Canon())
		}
	}
	var maxChunk, heavyWords int64
	heavies := make([]graph.V, 0, len(gvC))
	for x, cn := range gvC {
		if len(cn) > heavyThr {
			heavies = append(heavies, x)
			chunk := congest.CeilDiv(int64(g.Degree(x)), int64(len(cn)))
			if chunk > maxChunk {
				maxChunk = chunk
			}
		}
	}
	sort.Slice(heavies, func(i, j int) bool { return heavies[i] < heavies[j] })
	for _, x := range heavies {
		for _, y := range g.Neighbors(x) {
			known = append(known, graph.Edge{U: x, V: y}.Canon())
			heavyWords++
		}
	}
	local.ChargeMax("eden-heavy-send", maxChunk, heavyWords)
	known.Normalize()

	// Naive in-cluster listing: a designated collector learns everything
	// the cluster knows; rounds = Theorem 2.4 with the whole load on one
	// node.
	rt := routing.NewRouter(cl, n, cm)
	sent := make(map[graph.V]int64, cl.K())
	per := int64(len(known))/int64(cl.K()) + 1
	for i := 0; i < cl.K(); i++ {
		sent[cl.ByNewID(i)] = per
	}
	recv := map[graph.V]int64{cl.ByNewID(0): int64(len(known))}
	if err := rt.ChargeLoads(local, "eden-naive-listing", sent, recv); err != nil {
		return err
	}
	graph.NewLocalLister(known).AddCliques(cliques)

	// Light nodes list the K4s they share with the cluster: each light
	// node broadcasts each cluster neighbor to all its neighbors and
	// learns the adjacency answers (as in [8]; same mechanics as the
	// paper's §3 pass). Parallel within the cluster.
	var maxCn, lightWords int64
	for x, cn := range gvC {
		if len(cn) > heavyThr {
			continue
		}
		if int64(len(cn)) > maxCn {
			maxCn = int64(len(cn))
		}
		localKnown := make([]graph.Edge, 0, g.Degree(x)+len(cn)*4)
		for _, y := range g.Neighbors(x) {
			localKnown = append(localKnown, graph.Edge{U: x, V: y}.Canon())
		}
		for _, u := range cn {
			for _, y := range g.Neighbors(x) {
				lightWords += 2
				if y != u && g.HasEdge(u, y) {
					localKnown = append(localKnown, graph.Edge{U: u, V: y}.Canon())
				}
			}
		}
		graph.NewLocalLister(localKnown).AddCliques(cliques)
	}
	local.ChargeMax("eden-light-list", 2*maxCn, lightWords)
	return nil
}
