package arblist

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
	"kplist/internal/routing"
	"kplist/internal/sparselist"
)

// ArbResult is the outcome of one ARB-LIST pass (Theorem 2.9). The pass
// only bills: the Kp it covers are listed on the input graph (DESIGN.md §3).
type ArbResult struct {
	// EmHat are the goal edges: cluster edges minus bad edges. All their
	// Kp instances are listed, so they can be removed from the graph.
	EmHat graph.EdgeList
	// EsHat is the new sparse set: the input Es plus the decomposition's
	// Es, with a certified orientation.
	EsHat graph.EdgeList
	// EsHatOrient orients EsHat; its max out-degree grows by at most the
	// cluster threshold per pass (the paper's (c+1)·n^δ ladder).
	EsHatOrient *graph.Orientation
	// ErHat is the leftover: the decomposition's Er plus bad edges.
	ErHat graph.EdgeList
	// Stats records the classification census for experiments.
	Stats ArbStats
}

// ArbStats is the per-pass census.
type ArbStats struct {
	Clusters    int
	HeavyNodes  int
	LightNodes  int
	BadNodes    int
	BadEdges    int
	GoalEdges   int
	MaxLearned  int64 // max edges brought into any single cluster node
	HeavyThresh int
	BadThresh   int
	ClusterThr  int
}

// ArbList runs one pass of Algorithm ARB-LIST (Theorem 2.9) on the current
// working graph g, whose edges es and er partition. esOrient orients es
// (nil for empty es). It decomposes er, brings every outside edge that
// could form a Kp with a cluster goal edge into the cluster (heavy/light
// machinery, §2.4.1), verifies the §2.4.2 coverage, and bills the
// sparsity-aware listing inside each cluster (§2.4.3). All round charges
// follow DESIGN.md §5.
func ArbList(g *graph.Graph, es graph.EdgeList, esOrient *graph.Orientation, er graph.EdgeList, prm Params, cm congest.CostModel, ledger *congest.Ledger) (*ArbResult, error) {
	if prm.P < 3 {
		return nil, fmt.Errorf("arblist: p=%d < 3", prm.P)
	}
	n := g.N()
	if esOrient == nil {
		var err error
		esOrient, err = graph.NewOrientation(n, make([][]graph.V, n))
		if err != nil {
			return nil, err
		}
	}
	ps, err := newPass(g, er, prm, cm, ledger)
	if err != nil {
		return nil, err
	}
	decomp := ps.decomp

	esHat := graph.Union(es, decomp.Es)
	esHatOrient, err := esOrient.Merge(decomp.EsOrient)
	if err != nil {
		return nil, fmt.Errorf("arblist: merging orientations: %w", err)
	}

	stats := ArbStats{
		Clusters:    len(decomp.Clusters),
		HeavyThresh: ps.heavyThr,
		BadThresh:   ps.badThr,
		ClusterThr:  ps.clusterThr,
	}
	var badEdgesAll graph.EdgeList

	// Per-cluster phases run in parallel across clusters in the paper's
	// model, and we simulate them the same way: each cluster is processed
	// on its own host goroutine against a private ledger and stats census,
	// and the results are folded in cluster order, so the outcome is
	// bit-identical to the sequential loop at any worker count. Every
	// per-cluster phase charges with ChargeMax, so folding the private
	// ledgers with MergeMax reproduces exactly the parallel super-phase
	// bill (max rounds across clusters, messages summed).
	type clusterOut struct {
		bad    graph.EdgeList
		stats  ArbStats
		ledger *congest.Ledger
		err    error
	}
	outs := make([]clusterOut, len(decomp.Clusters))
	var failed atomic.Bool // short-circuits remaining clusters once one errs
	runCluster := func(i int) {
		if failed.Load() {
			return
		}
		out := &outs[i]
		out.ledger = &congest.Ledger{}
		out.bad, out.err = ps.processCluster(decomp.Clusters[i], prm, cm, out.ledger, &out.stats)
		if out.err != nil {
			failed.Store(true)
		}
	}
	if workers := prm.workers(); workers <= 1 || len(decomp.Clusters) <= 1 {
		for i := range decomp.Clusters {
			runCluster(i)
			if outs[i].err != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range decomp.Clusters {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				runCluster(i)
			}(i)
		}
		wg.Wait()
	}
	// Surface the first (by cluster order) error before folding: once one
	// cluster fails, later clusters may have been skipped entirely and
	// carry no results to merge.
	for i, cl := range decomp.Clusters {
		if outs[i].err != nil {
			return nil, fmt.Errorf("arblist: cluster %d: %w", cl.ID, outs[i].err)
		}
	}
	local := &congest.Ledger{}
	for i := range decomp.Clusters {
		out := &outs[i]
		stats.HeavyNodes += out.stats.HeavyNodes
		stats.LightNodes += out.stats.LightNodes
		stats.BadNodes += out.stats.BadNodes
		stats.MaxLearned = max(stats.MaxLearned, out.stats.MaxLearned)
		local.MergeMax(out.ledger)
		badEdgesAll = append(badEdgesAll, out.bad...)
	}
	if prm.FastK4 {
		// §3: light-incident K4s are listed by the light nodes themselves,
		// sequentially over clusters.
		ps.fastK4LightPass(ledger)
	}
	ledger.Merge(local)

	badEdgesAll.Normalize()
	emHat := graph.Subtract(decomp.Em, badEdgesAll)
	erHat := graph.Union(decomp.Er, badEdgesAll)
	stats.BadEdges = len(badEdgesAll)
	stats.GoalEdges = len(emHat)

	return &ArbResult{
		EmHat:       emHat,
		EsHat:       esHat,
		EsHatOrient: esHatOrient,
		ErHat:       erHat,
		Stats:       stats,
	}, nil
}

// pass is one ARB-LIST pass's frame: the working graph, its degeneracy
// orientation and the thresholds derived from it, and the decomposition
// of er that every later phase works on.
type pass struct {
	g                            *graph.Graph
	orient                       *graph.Orientation
	clusterThr, heavyThr, badThr int
	decomp                       *expander.Decomposition
}

// newPass derives the pass's thresholds from g's memoized peel and
// decomposes er, charging the decomposition to ledger.
func newPass(g *graph.Graph, er graph.EdgeList, prm Params, cm congest.CostModel, ledger *congest.Ledger) (*pass, error) {
	n := g.N()
	orient := g.DegeneracyOrientation()
	arb := max(orient.MaxOutDegree(), 1)
	ps := &pass{
		g: g, orient: orient,
		clusterThr: prm.clusterThreshold(n, arb),
		heavyThr:   prm.heavyThreshold(n, arb),
		badThr:     prm.badThreshold(n),
	}
	var err error
	ps.decomp, err = expander.Decompose(n, er, expander.Params{Threshold: ps.clusterThr, Seed: prm.Seed}, cm, ledger)
	if err != nil {
		return nil, fmt.Errorf("arblist: decomposition: %w", err)
	}
	if prm.Paranoid {
		if err := ps.decomp.Check(n, er); err != nil {
			return nil, fmt.Errorf("arblist: decomposition invariants: %w", err)
		}
	}
	return ps, nil
}

// processCluster runs §2.4.1–§2.4.3 for one cluster: the import (learn),
// then the reshuffle and the in-cluster listing, both billed from what
// the import leaves each member knowing. Returns the bad edges (moved to
// ErHat by the caller).
func (ps *pass) processCluster(cl *expander.Cluster, prm Params, cm congest.CostModel,
	local *congest.Ledger, stats *ArbStats) (graph.EdgeList, error) {
	n, g, fullOrient := ps.g.N(), ps.g, ps.orient
	imported, badEdges := ps.learn(cl, prm, local, stats)

	// Reshuffle (§2.4.3): every edge known inside the cluster is routed to
	// the member responsible for the vertex the edge is oriented away from.
	rt := routing.NewRouter(cl, n, cm)
	rs := routing.NewResponsibility(cl, n)
	var envs []routing.Envelope[graph.Edge]
	var maxKnown int64
	addKnown := func(u graph.V, e graph.Edge) {
		tail := fullOrient.Owner(e)
		if tail < 0 {
			tail = e.U
		}
		envs = append(envs, routing.Envelope[graph.Edge]{From: u, To: rs.OwnerOf(tail), Payload: e})
	}
	for _, u := range cl.Nodes {
		for _, w := range g.Neighbors(u) {
			addKnown(u, graph.Edge{U: u, V: w}.Canon())
		}
		for _, e := range imported[u] {
			addKnown(u, e)
		}
		maxKnown = max(maxKnown, int64(g.Degree(u)+len(imported[u])))
	}
	stats.MaxLearned = max(stats.MaxLearned, maxKnown)
	inbox, err := routing.Deliver(rt, local, "arb-reshuffle", envs)
	if err != nil {
		return nil, err
	}
	heldBy := make(map[graph.V]graph.EdgeList, len(inbox))
	for owner, got := range inbox {
		el := make(graph.EdgeList, 0, len(got))
		for _, env := range got {
			el = append(el, env.Payload)
		}
		el.Normalize()
		heldBy[owner] = el
	}

	// Sparsity-aware listing (§2.4.3) over everything the cluster knows.
	if _, err := sparselist.InCluster(rt, rs, sparselist.Input{
		N:    n,
		P:    prm.P,
		Seed: prm.Seed ^ int64(cl.ID+1)*0x9E3779B9,
	}, cm, local, heldBy); err != nil {
		return nil, err
	}
	return badEdges, nil
}

// learn runs the §2.4.1 import for one cluster, charging each phase:
// classify outside nodes, import heavy out-edges, demote bad-bad edges and
// learn light-incident outside edges (general mode). It returns the edges
// each member imported — the heavy out-edges it received, then the light
// edges it learned; with its incident edges, that is all the member knows
// — and the bad edges. The §2.4.2 coverage tests check this knowledge.
func (ps *pass) learn(cl *expander.Cluster, prm Params, local *congest.Ledger, stats *ArbStats) (
	imported map[graph.V][]graph.Edge, badEdges graph.EdgeList) {
	g, heavyThr, badThr := ps.g, ps.heavyThr, ps.badThr
	// Classification (§2.4.1). Every member broadcasts its cluster ID to
	// its outside neighbors: one round; each outside node counts its
	// in-cluster neighbors.
	gvC := make(map[graph.V]int)               // outside node -> #neighbors in C
	clusterNbrs := make(map[graph.V][]graph.V) // outside node -> its members
	var boundaryWords int64
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			if cl.Contains(x) {
				continue
			}
			gvC[x]++
			clusterNbrs[x] = append(clusterNbrs[x], u)
			boundaryWords++
		}
	}
	local.ChargeMax("arb-classify", 1, boundaryWords)

	heavy := make(map[graph.V]bool, len(gvC))
	var heavies []graph.V
	for x, cnt := range gvC {
		if cnt > heavyThr {
			heavy[x] = true
			heavies = append(heavies, x)
		}
	}
	sort.Slice(heavies, func(i, j int) bool { return heavies[i] < heavies[j] })
	stats.HeavyNodes += len(heavies)
	stats.LightNodes += len(gvC) - len(heavies)

	// Heavy nodes send all their out-edges into the cluster, chunked
	// across their in-cluster neighbors (§2.4.1): rounds = max chunk.
	imported = make(map[graph.V][]graph.Edge)
	var maxChunk, heavyWords int64
	for _, x := range heavies {
		outs := ps.orient.Out(x)
		nbrs := clusterNbrs[x]
		if len(nbrs) == 0 {
			continue
		}
		chunk := congest.CeilDiv(int64(len(outs)), int64(len(nbrs)))
		if chunk > maxChunk {
			maxChunk = chunk
		}
		for i, w := range outs {
			u := nbrs[i%len(nbrs)]
			imported[u] = append(imported[u], graph.Edge{U: x, V: w}.Canon())
			heavyWords++
		}
	}
	local.ChargeMax("arb-heavy-send", maxChunk, heavyWords)

	// Bad nodes and light learning (general mode only; §3 skips both).
	if !prm.FastK4 {
		lightNbrs := make(map[graph.V][]graph.V, cl.K())
		bad := make(map[graph.V]bool)
		for _, u := range cl.Nodes {
			for _, x := range g.Neighbors(u) {
				if !cl.Contains(x) && !heavy[x] {
					lightNbrs[u] = append(lightNbrs[u], x)
				}
			}
			if len(lightNbrs[u]) > badThr {
				bad[u] = true
			}
		}
		stats.BadNodes += len(bad)
		for _, e := range cl.Edges {
			if bad[e.U] && bad[e.V] {
				badEdges = append(badEdges, e)
			}
		}
		badEdges.Normalize()

		// Good nodes tell every outside neighbor their light list; the
		// neighbor answers which light nodes it is adjacent to. Rounds:
		// 2 · max light-list length (query + reply per boundary edge).
		var maxLights, lightWords int64
		for _, u := range cl.Nodes {
			if bad[u] {
				continue
			}
			lights := lightNbrs[u]
			if len(lights) == 0 {
				continue
			}
			if int64(len(lights)) > maxLights {
				maxLights = int64(len(lights))
			}
			for _, x := range g.Neighbors(u) {
				if cl.Contains(x) {
					continue
				}
				lightWords += 2 * int64(len(lights))
				for _, w := range lights {
					if x != w && g.HasEdge(x, w) {
						imported[u] = append(imported[u], graph.Edge{U: x, V: w}.Canon())
					}
				}
			}
		}
		local.ChargeMax("arb-light-learn", 2*maxLights, lightWords)
	}
	return imported, badEdges
}

// fastK4LightPass bills the §3 sequential pass: for each cluster, each
// C-light node broadcasts each of its cluster neighbors' IDs to all its
// neighbors and learns which are adjacent, so it knows every K4 it shares
// with the cluster. Charged additively per cluster (the pass is
// sequential over clusters): 2·max|C_x| rounds, one query and one reply
// per cluster neighbor and incident edge.
func (ps *pass) fastK4LightPass(ledger *congest.Ledger) {
	for _, cl := range ps.decomp.Clusters {
		var maxCn, words int64
		for x, cn := range lightNodes(ps.g, cl, ps.heavyThr) {
			maxCn = max(maxCn, int64(len(cn)))
			words += 2 * int64(len(cn)) * int64(ps.g.Degree(x))
		}
		ledger.Charge("arb-k4-light-list", 2*maxCn, words)
	}
}

// lightNodes maps each C-light outside node of cl (at most heavyThr
// cluster neighbors) to its cluster neighbors: the IDs it broadcasts in
// the §3 pass. The fast-K4 coverage tests derive each light node's
// knowledge from this map.
func lightNodes(g *graph.Graph, cl *expander.Cluster, heavyThr int) map[graph.V][]graph.V {
	gvC := make(map[graph.V][]graph.V)
	for _, u := range cl.Nodes {
		for _, x := range g.Neighbors(u) {
			if !cl.Contains(x) {
				gvC[x] = append(gvC[x], u)
			}
		}
	}
	for x, cn := range gvC {
		if len(cn) > heavyThr {
			delete(gvC, x)
		}
	}
	return gvC
}
