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
//
// The bill comes from the delivery alone; who lists which clique never
// enters it. Every clique's part multiset is some node's tuple, and that
// node receives all of the clique's edges, so the union of the listing
// nodes' outputs is exactly the Kp of the real edges. The simulation
// therefore charges the full delivery and lists nothing per node: the
// standalone lister enumerates that union once on the graph's kernel, and
// InCluster only bills (DESIGN.md §3, substitution 5).
package sparselist

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
	"kplist/internal/partition"
	"kplist/internal/routing"
)

// Input is the in-cluster listing problem handed to InCluster.
type Input struct {
	// N is the number of vertices in the underlying graph (part choices
	// are drawn for every vertex).
	N int
	// P is the clique size, ≥ 3.
	P int
	// Seed drives the random partition.
	Seed int64
}

// Result carries the listed cliques and the load statistics the cost model
// charged for.
type Result struct {
	// Cliques holds every Kp of the real edges, each exactly once: the
	// listing step enumerates them once, globally. Cliques() sorts it.
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

// CongestedClique runs Theorem 1.3 on g as an n-node congested clique: all
// n vertices are listing nodes, each initially knowing its incident edges,
// and the bill is ceil(maxLoad/(n-1)) rounds charged to the ledger. ctx,
// when non-nil, is polled at the phase boundaries (before the padding,
// after the partition, before the listing step) so a cancelled run stops
// within one phase of work.
//
// When padToLemma27 is set and the graph is too sparse for Lemma 2.7's
// hypotheses, fake edges are added (marked, never listed) until
// m/n^{1/p} = 20·n·log n, exactly as §4 prescribes; this only affects the
// bill, never the output.
func CongestedClique(ctx context.Context, g *graph.Graph, p int, seed int64, padToLemma27 bool, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	if p < 3 {
		return nil, fmt.Errorf("sparselist: p=%d < 3", p)
	}
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("sparselist: empty graph")
	}
	t := partition.PartsForListing(n, p)
	rng := rand.New(rand.NewSource(seed))

	if err := congest.CtxErr(ctx); err != nil {
		return nil, err
	}
	orient := g.DegeneracyOrientation()
	edges := graph.EdgeList(g.Edges())
	realCount := len(edges)
	if padToLemma27 {
		edges = padFakeEdges(n, p, edges, rng)
	}

	part := partition.Random(n, t, rng)
	asg, err := partition.NewAssignment(n, t, p)
	if err != nil {
		return nil, fmt.Errorf("sparselist: %w", err)
	}

	if err := congest.CtxErr(ctx); err != nil {
		return nil, err
	}
	res, err := deliver(edges[:realCount], edges[realCount:], part, asg,
		func(e graph.Edge) int32 {
			// In the congested clique, the listing node hosting an edge is
			// its tail vertex itself (every vertex is a listing node, with
			// new ID = vertex ID); a fake edge is hosted by its U end.
			owner := orient.Owner(e)
			if owner < 0 {
				owner = e.U
			}
			return int32(owner)
		})
	if err != nil {
		return nil, err
	}
	rounds := cm.CliqueRounds(n, res.MaxNodeLoad)
	ledger.Charge("congested-clique-listing", rounds, res.TotalMessages)
	if err := congest.CtxErr(ctx); err != nil {
		return nil, err
	}
	// Listing: the union of what the listing nodes see is every Kp of g,
	// so it is enumerated once on g's own kernel.
	res.Cliques = graph.NewCliqueBag(p)
	g.VisitCliques(p, res.Cliques.Add)
	res.Parts = t
	return res, nil
}

// InCluster bills the §2.4.3 step inside one cluster: heldBy maps each
// cluster member (by original vertex ID) to the edges it is responsible
// for after the reshuffle (grouped by simulated tail vertex). The router
// charges Theorem 2.4 bills for the partition broadcast and the delivery;
// the Result carries no cliques.
func InCluster(rt *routing.Router, rs *routing.Responsibility, in Input, cm congest.CostModel, ledger *congest.Ledger, heldBy map[graph.V]graph.EdgeList) (*Result, error) {
	if in.P < 3 {
		return nil, fmt.Errorf("sparselist: p=%d < 3", in.P)
	}
	cl := rt.Cluster()
	k := cl.K()
	d, err := newClusterDelivery(cl, in, heldBy)
	if err != nil {
		return nil, err
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

	res, err := deliver(d.edges, nil, d.part, d.asg, func(e graph.Edge) int32 { return d.host[e] })
	if err != nil {
		return nil, err
	}
	// Phase: deliver edges to subscribers, Theorem 2.4 inside the cluster.
	rounds := cm.RouteRounds(in.N, res.MaxNodeLoad, int64(cl.MinDegree)) * cm.CliquePolylog(in.N)
	ledger.ChargeMax("cluster-sparse-listing", rounds, res.TotalMessages)
	res.Parts = d.asg.T
	return res, nil
}

// clusterDelivery is what InCluster delivers: each held edge once, from its holder to its tuples.
type clusterDelivery struct {
	edges graph.EdgeList
	host  map[graph.Edge]int32
	part  *partition.Partition
	asg   *partition.Assignment
}

// newClusterDelivery draws the tuples and flattens heldBy; a holder outside cl is an error.
func newClusterDelivery(cl *expander.Cluster, in Input, heldBy map[graph.V]graph.EdgeList) (*clusterDelivery, error) {
	t := partition.PartsForListing(cl.K(), in.P)
	asg, err := partition.NewAssignment(cl.K(), t, in.P)
	if err != nil {
		return nil, fmt.Errorf("sparselist: %w", err)
	}
	d := &clusterDelivery{host: make(map[graph.Edge]int32), asg: asg,
		part: partition.Random(in.N, t, rand.New(rand.NewSource(in.Seed)))}
	for member, el := range heldBy {
		id := cl.NewID(member)
		if id < 0 {
			return nil, fmt.Errorf("sparselist: holder %d not in cluster %d", member, cl.ID)
		}
		for _, e := range el {
			e = e.Canon()
			if _, dup := d.host[e]; !dup {
				d.host[e] = int32(id)
				d.edges = append(d.edges, e)
			}
		}
	}
	d.edges.Normalize()
	return d, nil
}

// deliver performs the delivery accounting shared by both modes: every
// edge goes to each listing node whose tuple holds both its endpoints'
// parts. realEdges and fakeEdges load the network alike; only real edges
// count toward MaxPairEdges. hostOf returns the listing-node ID (in [k])
// hosting each edge. The Result's Cliques and Parts are left to the caller.
func deliver(realEdges, fakeEdges graph.EdgeList,
	part *partition.Partition, asg *partition.Assignment, hostOf func(graph.Edge) int32) (*Result, error) {
	k := asg.K
	sent := make([]int64, k)
	recv := make([]int64, k)
	var totalMsgs int64
	for _, el := range []graph.EdgeList{realEdges, fakeEdges} {
		for _, e := range el {
			host := hostOf(e)
			if host < 0 || int(host) >= k {
				return nil, fmt.Errorf("sparselist: edge %v hosted by invalid node %d", e, host)
			}
			subs := asg.Subscribers(part.PartOf[e.U], part.PartOf[e.V])
			sent[host] += int64(len(subs))
			totalMsgs += int64(len(subs))
			for _, s := range subs {
				recv[s]++
			}
		}
	}
	var maxLoad int64
	for i := 0; i < k; i++ {
		maxLoad = max(maxLoad, sent[i]+recv[i])
	}
	return &Result{
		MaxNodeLoad:   maxLoad,
		TotalMessages: totalMsgs,
		MaxPairEdges:  part.MaxPairCount(realEdges),
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
// clique is checked against g).
func CongestedCliqueOnGraph(g *graph.Graph, p int, seed int64, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	return CongestedCliqueOnGraphCtx(nil, g, p, seed, cm, ledger)
}

// CongestedCliqueOnGraphCtx is CongestedCliqueOnGraph under an optional
// context (nil means no cancellation); see CongestedClique for the poll
// points.
func CongestedCliqueOnGraphCtx(ctx context.Context, g *graph.Graph, p int, seed int64, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	res, err := CongestedClique(ctx, g, p, seed, false, cm, ledger)
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
