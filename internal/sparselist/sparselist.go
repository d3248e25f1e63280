// Package sparselist implements the paper's sparsity-aware Kp-listing
// algorithm (§2.4.3), in both of its roles:
//
//   - standalone in the CONGESTED CLIQUE model (Theorem 1.3:
//     Θ̃(1 + m/n^{1+2/p}) rounds for all p ≥ 3), and
//   - as the in-cluster listing step of ARB-LIST, where a cluster of k
//     nodes lists every Kp among the edges it has learned, paying
//     Theorem 2.4 routing inside the cluster.
//
// Mechanics (both modes): partition the vertex set into t parts (t = k^{1/p});
// assign each listing node a p-tuple of parts via the radix representation
// of its ID; deliver every known edge to each node whose tuple contains the
// parts of both endpoints; each node lists the p-cliques it sees. Lemma 2.7
// bounds the number of edges between any two parts, which bounds per-node
// receive load and hence rounds.
package sparselist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kplist/internal/congest"
	"kplist/internal/graph"
	"kplist/internal/partition"
	"kplist/internal/routing"
)

// Input is the listing problem handed to the sparsity-aware algorithm.
type Input struct {
	// Ctx, when non-nil, is polled at the phase boundaries of the
	// standalone congested-clique run (before orientation, after the
	// partition, before the listing step) so a cancelled run stops within
	// one phase of work. nil means no cancellation.
	Ctx context.Context
	// N is the number of vertices in the underlying graph (part choices
	// are drawn for every vertex).
	N int
	// P is the clique size, ≥ 3.
	P int
	// Edges is the edge universe to list cliques in.
	Edges graph.EdgeList
	// Orient assigns each edge to the listing node hosting its tail; nil
	// means a degeneracy orientation of Edges is computed (standalone CC
	// mode, where every vertex is a listing node).
	Orient *graph.Orientation
	// Seed drives the random partition.
	Seed int64
	// Workers bounds the host goroutines the local listing step spreads
	// over (the paper's listing nodes work in parallel). 0 means
	// GOMAXPROCS, 1 forces the sequential loop; the output and the bill
	// are identical for every value.
	Workers int
}

// workers resolves the host parallelism of the listing step.
func (in Input) workers() int {
	if in.Workers > 0 {
		return in.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result carries the listed cliques and the load statistics the cost model
// charged for.
type Result struct {
	// Cliques holds every listed Kp, each exactly once: the listing nodes
	// keep only the cliques whose signature they own. Cliques() sorts it.
	Cliques *graph.CliqueBag
	// MaxNodeLoad is the busiest node's sent+received word count.
	MaxNodeLoad int64
	// TotalMessages is the total number of edge-words delivered.
	TotalMessages int64
	// Parts is the number of parts t used.
	Parts int
	// MaxPairEdges is the largest number of edges between any two parts
	// (the Lemma 2.7 quantity).
	MaxPairEdges int64
}

// CongestedClique runs Theorem 1.3 on an n-node congested clique: all n
// vertices are listing nodes, each initially knowing its incident edges,
// and the bill is ceil(maxLoad/(n-1)) rounds charged to the ledger.
//
// When padToLemma27 is set and the graph is too sparse for Lemma 2.7's
// hypotheses, fake edges are added (marked, never listed) until
// m/n^{1/p} = 20·n·log n, exactly as §4 prescribes; this only affects the
// bill, never the output.
func CongestedClique(in Input, padToLemma27 bool, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	if in.P < 3 {
		return nil, fmt.Errorf("sparselist: p=%d < 3", in.P)
	}
	if in.N < 1 {
		return nil, fmt.Errorf("sparselist: empty graph")
	}
	k := in.N
	t := partition.PartsForListing(k, in.P)
	rng := rand.New(rand.NewSource(in.Seed))

	if err := congest.CtxErr(in.Ctx); err != nil {
		return nil, err
	}
	orient := in.Orient
	if orient == nil {
		g, err := in.Edges.Graph(in.N)
		if err != nil {
			return nil, fmt.Errorf("sparselist: %w", err)
		}
		orient = g.DegeneracyOrientation()
	}

	edges := in.Edges
	realCount := len(edges)
	if padToLemma27 {
		edges = padFakeEdges(in.N, in.P, edges, rng)
	}

	part := partition.Random(in.N, t, rng)
	asg, err := partition.NewAssignment(k, t, in.P)
	if err != nil {
		return nil, fmt.Errorf("sparselist: %w", err)
	}

	if err := congest.CtxErr(in.Ctx); err != nil {
		return nil, err
	}
	res, err := runListing(in.P, edges[:realCount], edges[realCount:], part, asg,
		func(e graph.Edge) int32 {
			// In the congested clique, the listing node hosting an edge is
			// its tail vertex itself (every vertex is a listing node, with
			// new ID = vertex ID).
			owner := orient.Owner(e)
			if owner < 0 {
				owner = e.U
			}
			return int32(owner)
		}, in.workers())
	if err != nil {
		return nil, err
	}
	rounds := cm.CliqueRounds(k, res.MaxNodeLoad)
	ledger.Charge("congested-clique-listing", rounds, res.TotalMessages)
	res.Parts = t
	return res, nil
}

// InCluster runs the §2.4.3 step inside one cluster: heldBy maps each
// cluster member (by original vertex ID) to the edges it is responsible
// for after the reshuffle (grouped by simulated tail vertex). The router
// charges Theorem 2.4 bills for the partition broadcast and the delivery.
func InCluster(rt *routing.Router, rs *routing.Responsibility, in Input, cm congest.CostModel, ledger *congest.Ledger, heldBy map[graph.V]graph.EdgeList) (*Result, error) {
	if in.P < 3 {
		return nil, fmt.Errorf("sparselist: p=%d < 3", in.P)
	}
	cl := rt.Cluster()
	k := cl.K()
	t := partition.PartsForListing(k, in.P)
	rng := rand.New(rand.NewSource(in.Seed))
	part := partition.Random(in.N, t, rng)
	asg, err := partition.NewAssignment(k, t, in.P)
	if err != nil {
		return nil, fmt.Errorf("sparselist: %w", err)
	}

	// Phase: broadcast part choices. Every node draws the choices for the
	// O(n/k) vertices it simulates and broadcasts them to all k members:
	// each member sends and receives O(n) words (§2.4.3 charges Õ(n^{1−δ})
	// rounds via Theorem 2.4).
	sent := make(map[graph.V]int64, k)
	recv := make(map[graph.V]int64, k)
	for i := 0; i < k; i++ {
		lo, hi := rs.Range(i)
		member := cl.ByNewID(i)
		sent[member] = int64(hi-lo) * int64(k-1)
		recv[member] = int64(in.N) - int64(hi-lo)
	}
	if err := rt.ChargeLoads(ledger, "cluster-partition-broadcast", sent, recv); err != nil {
		return nil, err
	}

	// Validate holders and flatten the held edges; ownership for delivery
	// accounting is the holder's new ID.
	ownerOf := make(map[graph.Edge]int32)
	var all graph.EdgeList
	for member, el := range heldBy {
		id := cl.NewID(member)
		if id < 0 {
			return nil, fmt.Errorf("sparselist: holder %d not in cluster %d", member, cl.ID)
		}
		for _, e := range el {
			e = e.Canon()
			if _, dup := ownerOf[e]; !dup {
				ownerOf[e] = int32(id)
				all = append(all, e)
			}
		}
	}
	all.Normalize()

	// InCluster is itself invoked from per-cluster workers (ARB-LIST fans
	// out across clusters), so its listing step stays single-threaded.
	res, err := runListing(in.P, all, nil, part, asg, func(e graph.Edge) int32 {
		return ownerOf[e.Canon()]
	}, 1)
	if err != nil {
		return nil, err
	}
	// Phase: deliver edges to subscribers, Theorem 2.4 inside the cluster.
	rounds := cm.RouteRounds(in.N, res.MaxNodeLoad, int64(cl.MinDegree)) * cm.CliquePolylog(in.N)
	ledger.ChargeMax("cluster-sparse-listing", rounds, res.TotalMessages)
	res.Parts = t
	return res, nil
}

// runListing performs the shared delivery accounting and local listing.
// realEdges are listed; fakeEdges only contribute to loads. hostOf returns
// the listing-node ID (in [k]) hosting each edge. workers bounds the host
// goroutines used for the local listing step (1 = fully sequential; the
// output is identical for every value).
func runListing(p int, realEdges, fakeEdges graph.EdgeList,
	part *partition.Partition, asg *partition.Assignment, hostOf func(graph.Edge) int32, workers int) (*Result, error) {
	k := asg.K
	t := asg.T
	sent := make([]int64, k)
	recv := make([]int64, k)
	var totalMsgs int64

	// edgesByPair collects real edges per part pair for the listing step;
	// fake edges are accounted but never listed.
	edgesByPair := make([][]graph.Edge, partition.NumPairs(t))
	account := func(e graph.Edge, real bool) error {
		host := hostOf(e)
		if host < 0 || int(host) >= k {
			return fmt.Errorf("sparselist: edge %v hosted by invalid node %d", e, host)
		}
		pa, pb := part.PartOf[e.U], part.PartOf[e.V]
		subs := asg.Subscribers(pa, pb)
		sent[host] += int64(len(subs))
		totalMsgs += int64(len(subs))
		for _, s := range subs {
			recv[s]++
		}
		if real {
			edgesByPair[partition.PairIndex(int(pa), int(pb), t)] = append(
				edgesByPair[partition.PairIndex(int(pa), int(pb), t)], e)
		}
		return nil
	}
	for _, e := range realEdges {
		if err := account(e, true); err != nil {
			return nil, err
		}
	}
	for _, e := range fakeEdges {
		if err := account(e, false); err != nil {
			return nil, err
		}
	}
	var maxLoad, maxPair int64
	for i := 0; i < k; i++ {
		if l := sent[i] + recv[i]; l > maxLoad {
			maxLoad = l
		}
	}
	for _, el := range edgesByPair {
		if int64(len(el)) > maxPair {
			maxPair = int64(len(el))
		}
	}

	// Local listing: nodes with the same part multiset see the same edges,
	// so we list once per distinct multiset (outputs are identical to
	// every node listing independently; the bill above already reflects
	// the full redundant delivery). A clique whose parts repeat, such as
	// {a,a,b}, is visible to every tuple holding its part pairs, so each
	// listing node keeps only the cliques whose signature — the sorted
	// multiset of their vertices' parts — is its own multiset: every
	// p-multiset over t parts is some tuple, so each clique is kept by
	// exactly one of them (the rule the cluster gateway's shards use,
	// DESIGN.md §12). In the paper the listing nodes work in parallel;
	// the simulation spreads the distinct multisets across host
	// goroutines the same way — each lists into a private bag, appended
	// in multiset order, so the output is identical at any worker count.
	sigs := partition.NewSigIndex(t, p)
	seen := make([]bool, sigs.Count())
	sig := make([]int32, p)
	var distinct, owns []int // a tuple ID per multiset, and the signature rank it owns
	for id := 0; id < partition.TupleCount(t, p); id++ {
		copy(sig, asg.Tuples[id])
		slices.Sort(sig)
		if r := sigs.Rank(sig); !seen[r] {
			seen[r] = true
			distinct, owns = append(distinct, id), append(owns, r)
		}
	}
	perTuple := make([]*graph.CliqueBag, len(distinct))
	listTuple := func(j int) {
		tup := asg.Tuples[distinct[j]]
		var local []graph.Edge
		seenPair := make(map[int]bool, p*p)
		for i := 0; i < p; i++ {
			for jj := i; jj < p; jj++ {
				pi := partition.PairIndex(int(tup[i]), int(tup[jj]), t)
				if seenPair[pi] {
					continue
				}
				seenPair[pi] = true
				local = append(local, edgesByPair[pi]...)
			}
		}
		sig := make([]int32, p)
		out := graph.NewCliqueBag(p)
		graph.NewLocalLister(local).VisitCliques(p, func(c graph.Clique) {
			for i, v := range c {
				sig[i] = part.PartOf[v]
			}
			slices.Sort(sig)
			if sigs.Rank(sig) == owns[j] {
				out.Add(c)
			}
		})
		perTuple[j] = out
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}
	if workers <= 1 {
		for j := range distinct {
			listTuple(j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(distinct) {
						return
					}
					listTuple(j)
				}
			}()
		}
		wg.Wait()
	}
	cliques := graph.NewCliqueBag(p)
	for _, out := range perTuple {
		cliques.AddBag(out)
	}
	return &Result{
		Cliques:       cliques,
		MaxNodeLoad:   maxLoad,
		TotalMessages: totalMsgs,
		MaxPairEdges:  maxPair,
	}, nil
}

// padFakeEdges implements the §4 padding: if m/n^{1/p} < 20·n·log n, add
// random fake edges (possibly parallel to real ones — they are distinct
// words on the wire) until equality. Fake edges are accounted for load but
// never listed.
func padFakeEdges(n, p int, edges graph.EdgeList, rng *rand.Rand) graph.EdgeList {
	if n < 2 {
		return edges
	}
	nroot := float64(n)
	target := int64(20 * nroot * float64(congest.Log2Ceil(n)) * math.Pow(nroot, 1.0/float64(p)))
	if int64(len(edges)) >= target {
		return edges
	}
	out := make(graph.EdgeList, len(edges), target)
	copy(out, edges)
	for int64(len(out)) < target {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		if u == v {
			continue
		}
		out = append(out, graph.Edge{U: u, V: v}.Canon())
	}
	return out
}

// CongestedCliqueOnGraph is a convenience wrapper: list all Kp of g in the
// congested clique model, verifying nothing is fabricated (every returned
// clique is checked against g). workers follows Input.Workers semantics
// (0 = GOMAXPROCS; identical output for every value).
func CongestedCliqueOnGraph(g *graph.Graph, p int, seed int64, workers int, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	return CongestedCliqueOnGraphCtx(nil, g, p, seed, workers, cm, ledger)
}

// CongestedCliqueOnGraphCtx is CongestedCliqueOnGraph under an optional
// context (nil means no cancellation); see Input.Ctx for the poll points.
func CongestedCliqueOnGraphCtx(ctx context.Context, g *graph.Graph, p int, seed int64, workers int, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	in := Input{Ctx: ctx, N: g.N(), P: p, Edges: graph.NewEdgeList(g.Edges()), Seed: seed, Workers: workers}
	res, err := CongestedClique(in, false, cm, ledger)
	if err != nil {
		return nil, err
	}
	if err := checkCliques(g, res.Cliques); err != nil {
		return nil, err
	}
	return res, nil
}

// checkCliques verifies that every tuple in bag is a clique of g, so a
// listing bug can never fabricate output.
func checkCliques(g *graph.Graph, bag *graph.CliqueBag) error {
	for c := range bag.All() {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(c[i], c[j]) {
					return fmt.Errorf("sparselist: fabricated clique %v", c)
				}
			}
		}
	}
	return nil
}
