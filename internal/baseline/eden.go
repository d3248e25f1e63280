package baseline

import (
	"fmt"
	"math"

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
// The passes only bill (edenPasses), so the returned bag is g's K4
// listing, enumerated once on g's kernel.
func EdenK4List(g *graph.Graph, prm EdenK4Params, cm congest.CostModel, ledger *congest.Ledger) (*graph.CliqueBag, error) {
	if _, _, err := edenPasses(g, prm, cm, ledger); err != nil {
		return nil, err
	}
	cliques := graph.NewCliqueBag(4)
	g.VisitCliques(4, cliques.Add)
	return cliques, nil
}

// withDefaults fills the zero fields of prm for an n-vertex graph, n ≥ 1.
func (prm EdenK4Params) withDefaults(n int) EdenK4Params {
	if prm.HeavyThreshold <= 0 {
		prm.HeavyThreshold = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if prm.ClusterThreshold <= 0 {
		prm.ClusterThreshold = max(int(math.Pow(float64(n), 5.0/6)/(2*float64(congest.Log2Ceil(n)))), 1)
	}
	if prm.MaxIterations <= 0 {
		prm.MaxIterations = int(4*congest.Log2Ceil(n)) + 8
	}
	return prm
}

// edenPasses runs and bills the passes, returning every cluster formed
// and the rest the final broadcast billed. Each edge of g is a cluster
// edge or in the rest, so each K4 is known in full by some node: of a
// cluster holding one of its edges (edenKnowledge), or of the broadcast.
func edenPasses(g *graph.Graph, prm EdenK4Params, cm congest.CostModel, ledger *congest.Ledger) (
	clusters []*expander.Cluster, rest graph.EdgeList, err error) {
	n := g.N()
	if n == 0 {
		return nil, nil, nil
	}
	prm = prm.withDefaults(n)
	er := graph.NewEdgeList(g.Edges())
	var esAll graph.EdgeList
	for iter := 0; len(er) > 0 && iter < prm.MaxIterations; iter++ {
		decomp, err := expander.Decompose(n, er, expander.Params{
			Threshold: prm.ClusterThreshold,
			Seed:      prm.Seed + int64(iter)*104729,
		}, cm, ledger)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline: eden decomposition: %w", err)
		}
		local := &congest.Ledger{}
		for _, cl := range decomp.Clusters {
			if err := edenCluster(n, g, cl, prm.HeavyThreshold, cm, local); err != nil {
				return nil, nil, fmt.Errorf("baseline: eden cluster %d: %w", cl.ID, err)
			}
		}
		clusters = append(clusters, decomp.Clusters...)
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
	if rest = graph.Union(esAll, er); len(rest) > 0 {
		restGraph, err := rest.Graph(n)
		if err != nil {
			return nil, nil, err
		}
		if err := BroadcastList(restGraph, 4, cm, ledger); err != nil {
			return nil, nil, err
		}
	}
	return clusters, rest, nil
}

// edenCluster bills one cluster from what edenKnowledge leaves its nodes
// knowing: a classification round over the member–outside edges, heavy
// nodes sending their ENTIRE neighborhood in chunks across their cluster
// neighbors, and light nodes asking every neighbor about every cluster
// neighbor (as in [8]; the paper's §3 mechanics), in parallel.
func edenCluster(n int, g *graph.Graph, cl *expander.Cluster, heavyThr int,
	cm congest.CostModel, local *congest.Ledger) error {
	kn := edenKnowledge(g, cl, heavyThr)
	var boundary, maxChunk, heavyWords, maxCn, lightWords int64
	for x, k := range kn.heavies {
		boundary += int64(k)
		maxChunk = max(maxChunk, congest.CeilDiv(int64(g.Degree(x)), int64(k)))
		heavyWords += int64(g.Degree(x))
	}
	for x, cn := range kn.lights {
		boundary += int64(len(cn))
		maxCn = max(maxCn, int64(len(cn)))
		lightWords += 2 * int64(len(cn)) * int64(g.Degree(x))
	}
	local.ChargeMax("eden-classify", 1, boundary)
	local.ChargeMax("eden-heavy-send", maxChunk, heavyWords)

	// Naive in-cluster listing: a designated collector learns everything
	// the cluster knows; rounds = Theorem 2.4 with the whole load on one
	// node.
	rt := routing.NewRouter(cl, n, cm)
	sent := make(map[graph.V]int64, cl.K())
	per := int64(len(kn.collector))/int64(cl.K()) + 1
	for i := 0; i < cl.K(); i++ {
		sent[cl.ByNewID(i)] = per
	}
	recv := map[graph.V]int64{cl.ByNewID(0): int64(len(kn.collector))}
	if err := rt.ChargeLoads(local, "eden-naive-listing", sent, recv); err != nil {
		return err
	}
	local.ChargeMax("eden-light-list", 2*maxCn, lightWords)
	return nil
}

// edenView is what one cluster's Eden-style pass brings together: every
// K4 with a cluster edge is known in full by the collector or by one
// light node, as the coverage tests check.
type edenView struct {
	heavies   map[graph.V]int       // C-heavy outside node → its number of cluster neighbors
	lights    map[graph.V][]graph.V // C-light outside node → its cluster neighbors
	collector graph.EdgeList        // the cluster's edges, every edge at a member, the heavies' neighborhoods
}

// edenKnowledge classifies cl's outside neighbors and builds the
// collector's normalized edge set. Light node x knows its own edges and,
// for each u in lights[x] and neighbor y of x, whether u ~ y.
func edenKnowledge(g *graph.Graph, cl *expander.Cluster, heavyThr int) *edenView {
	kn := &edenView{heavies: make(map[graph.V]int), lights: make(map[graph.V][]graph.V)}
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			if !cl.Contains(x) {
				kn.lights[x] = append(kn.lights[x], u)
			}
		}
	}
	for x, cn := range kn.lights {
		if len(cn) > heavyThr {
			kn.heavies[x] = len(cn)
			delete(kn.lights, x)
		}
	}

	kn.collector = append(make(graph.EdgeList, 0, len(cl.Edges)*2), cl.Edges...)
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			kn.collector = append(kn.collector, graph.Edge{U: u, V: x}.Canon())
		}
	}
	for x := range kn.heavies {
		for _, y := range g.Neighbors(x) {
			kn.collector = append(kn.collector, graph.Edge{U: x, V: y}.Canon())
		}
	}
	kn.collector.Normalize()
	return kn
}
