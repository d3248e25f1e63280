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

// ArbResult is the outcome of one ARB-LIST pass (Theorem 2.9).
type ArbResult struct {
	// Cliques are all Kp listed by this pass, appended in cluster order
	// (a clique may appear more than once; Cliques() sorts and dedups):
	// every Kp with at least one goal edge (EmHat) is guaranteed present;
	// Kp discovered incidentally may appear too, which only helps.
	Cliques *graph.CliqueBag
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
// machinery, §2.4.1), verifies the §2.4.2 coverage, and lists inside each
// cluster via the sparsity-aware algorithm (§2.4.3). All round charges
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
	fullOrient := g.DegeneracyOrientation()
	arb := fullOrient.MaxOutDegree()
	if arb < 1 {
		arb = 1
	}
	clusterThr := prm.clusterThreshold(n, arb)
	heavyThr := prm.heavyThreshold(n, arb)
	badThr := prm.badThreshold(n)

	decomp, err := expander.Decompose(n, er, expander.Params{
		Threshold: clusterThr,
		Seed:      prm.Seed,
	}, cm, ledger)
	if err != nil {
		return nil, fmt.Errorf("arblist: decomposition: %w", err)
	}
	if prm.Paranoid {
		if err := decomp.Check(n, er); err != nil {
			return nil, fmt.Errorf("arblist: decomposition invariants: %w", err)
		}
	}

	esHat := graph.Union(es, decomp.Es)
	esHatOrient, err := esOrient.Merge(decomp.EsOrient)
	if err != nil {
		return nil, fmt.Errorf("arblist: merging orientations: %w", err)
	}

	stats := ArbStats{
		Clusters:    len(decomp.Clusters),
		HeavyThresh: heavyThr,
		BadThresh:   badThr,
		ClusterThr:  clusterThr,
	}
	cliques := graph.NewCliqueBag(prm.P)
	var badEdgesAll graph.EdgeList

	// Per-cluster phases run in parallel across clusters in the paper's
	// model, and we simulate them the same way: each cluster is processed
	// on its own host goroutine against a private ledger / clique bag /
	// stats census, and the results are folded in cluster order, so the
	// outcome is bit-identical to the sequential loop at any worker count.
	// Every per-cluster phase charges with ChargeMax, so folding the
	// private ledgers with MergeMax reproduces exactly the parallel
	// super-phase bill (max rounds across clusters, messages summed).
	type clusterOut struct {
		bad     graph.EdgeList
		cliques *graph.CliqueBag
		stats   ArbStats
		ledger  *congest.Ledger
		err     error
	}
	outs := make([]clusterOut, len(decomp.Clusters))
	var failed atomic.Bool // short-circuits remaining clusters once one errs
	runCluster := func(i int) {
		if failed.Load() {
			return
		}
		out := &outs[i]
		out.cliques = graph.NewCliqueBag(prm.P)
		out.ledger = &congest.Ledger{}
		out.bad, out.err = processCluster(n, g, fullOrient, decomp.Clusters[i],
			prm, heavyThr, badThr, cm, out.ledger, out.cliques, &out.stats)
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
		cliques.AddBag(out.cliques)
		stats.HeavyNodes += out.stats.HeavyNodes
		stats.LightNodes += out.stats.LightNodes
		stats.BadNodes += out.stats.BadNodes
		if out.stats.MaxLearned > stats.MaxLearned {
			stats.MaxLearned = out.stats.MaxLearned
		}
		local.MergeMax(out.ledger)
		badEdgesAll = append(badEdgesAll, out.bad...)
	}
	if prm.FastK4 {
		// §3: light-incident K4s are listed by the light nodes themselves,
		// sequentially over clusters.
		if err := fastK4LightPass(n, g, decomp, heavyThr, ledger, cliques); err != nil {
			return nil, fmt.Errorf("arblist: fast-K4 light pass: %w", err)
		}
	}
	ledger.Merge(local)

	badEdgesAll.Normalize()
	emHat := graph.Subtract(decomp.Em, badEdgesAll)
	erHat := graph.Union(decomp.Er, badEdgesAll)
	stats.BadEdges = len(badEdgesAll)
	stats.GoalEdges = len(emHat)

	return &ArbResult{
		Cliques:     cliques,
		EmHat:       emHat,
		EsHat:       esHat,
		EsHatOrient: esHatOrient,
		ErHat:       erHat,
		Stats:       stats,
	}, nil
}

// processCluster runs §2.4.1–§2.4.3 for one cluster: classify outside
// nodes, import heavy out-edges, demote bad-bad edges, learn light-incident
// outside edges (general mode), reshuffle, and list. Returns the bad edges
// (moved to ErHat by the caller).
func processCluster(n int, g *graph.Graph, fullOrient *graph.Orientation, cl *expander.Cluster,
	prm Params, heavyThr, badThr int, cm congest.CostModel, local *congest.Ledger,
	cliques *graph.CliqueBag, stats *ArbStats) (graph.EdgeList, error) {

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
	receivedAt := make(map[graph.V][]graph.Edge)
	var maxChunk, heavyWords int64
	for _, x := range heavies {
		outs := fullOrient.Out(x)
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
			receivedAt[u] = append(receivedAt[u], graph.Edge{U: x, V: w}.Canon())
			heavyWords++
		}
	}
	local.ChargeMax("arb-heavy-send", maxChunk, heavyWords)

	// Bad nodes and light learning (general mode only; §3 skips both).
	var badEdges graph.EdgeList
	learnedAt := make(map[graph.V][]graph.Edge)
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
						learnedAt[u] = append(learnedAt[u], graph.Edge{U: x, V: w}.Canon())
					}
				}
			}
		}
		local.ChargeMax("arb-light-learn", 2*maxLights, lightWords)
	}

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
		var known int64
		for _, w := range g.Neighbors(u) {
			addKnown(u, graph.Edge{U: u, V: w}.Canon())
			known++
		}
		for _, e := range receivedAt[u] {
			addKnown(u, e)
			known++
		}
		for _, e := range learnedAt[u] {
			addKnown(u, e)
			known++
		}
		if known > maxKnown {
			maxKnown = known
		}
	}
	if maxKnown > stats.MaxLearned {
		stats.MaxLearned = maxKnown
	}
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
	res, err := sparselist.InCluster(rt, rs, sparselist.Input{
		N:    n,
		P:    prm.P,
		Seed: prm.Seed ^ int64(cl.ID+1)*0x9E3779B9,
	}, cm, local, heldBy)
	if err != nil {
		return nil, err
	}
	cliques.AddBag(res.Cliques)
	return badEdges, nil
}

// fastK4LightPass implements the §3 sequential pass: for each cluster, each
// C-light node broadcasts each of its cluster neighbors' IDs to all its
// neighbors, learns which are adjacent, and lists the K4s it sees. Charged
// additively per cluster (the pass is sequential over clusters).
func fastK4LightPass(n int, g *graph.Graph, decomp *expander.Decomposition, heavyThr int,
	ledger *congest.Ledger, cliques *graph.CliqueBag) error {
	for _, cl := range decomp.Clusters {
		// Identify light nodes of this cluster.
		gvC := make(map[graph.V][]graph.V)
		for _, u := range cl.Nodes {
			for _, x := range g.Neighbors(u) {
				if !cl.Contains(x) {
					gvC[x] = append(gvC[x], u)
				}
			}
		}
		var maxCn, words int64
		lights := make([]graph.V, 0, len(gvC))
		for x, cn := range gvC {
			if len(cn) <= heavyThr {
				lights = append(lights, x)
				if int64(len(cn)) > maxCn {
					maxCn = int64(len(cn))
				}
			}
		}
		sort.Slice(lights, func(i, j int) bool { return lights[i] < lights[j] })
		for _, x := range lights {
			cn := gvC[x]
			known := make([]graph.Edge, 0, g.Degree(x)+len(cn)*4)
			for _, y := range g.Neighbors(x) {
				known = append(known, graph.Edge{U: x, V: y}.Canon())
			}
			// x broadcasts each cluster neighbor u to every neighbor y;
			// y replies whether u ~ y.
			for _, u := range cn {
				for _, y := range g.Neighbors(x) {
					words += 2
					if y != u && g.HasEdge(u, y) {
						known = append(known, graph.Edge{U: u, V: y}.Canon())
					}
				}
			}
			graph.NewLocalLister(known).AddCliques(cliques)
		}
		// Rounds for this cluster: each light node broadcasts |Cn| IDs and
		// receives as many replies per edge, all lights in parallel.
		ledger.Charge("arb-k4-light-list", 2*maxCn, words)
	}
	return nil
}
