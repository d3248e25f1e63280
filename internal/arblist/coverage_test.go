package arblist

import (
	"math/rand"
	"slices"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// These tests exercise the §2.4.2 coverage argument case by case on
// crafted instances: a K4 with a goal edge inside a cluster and its
// outside edge in each of the paper's categories (heavy–heavy, light
// endpoint with a good witness) must be known in full after the cluster
// pass — with the scenario constructed so the relevant code path is the
// only one that can bring the clique together.
//
// A pass lists nothing itself: its bill is computed from what its nodes
// know, and the pipeline's result is the input graph's listing. So the
// evidence is coverage, checked on the very values the bill comes from:
// newPass's decomposition, learn's imports (the cluster's knowledge,
// which sparselist.InCluster's delivery hands, clique by clique, to one
// listing node — sparselist's tests check that step) and, under FastK4,
// lightNodes' cluster neighbors (each light node's knowledge).

// clusterView is what one cluster's nodes know after a pass.
type clusterView struct {
	goal   graph.EdgeList   // the cluster's edges minus its bad edges
	known  graph.EdgeList   // the members' edges plus everything they imported
	lights []graph.EdgeList // FastK4: what each light outside node knows
}

// knowsAll reports whether the normalized edge set known holds every
// edge of c.
func knowsAll(known graph.EdgeList, c graph.Clique) bool {
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if !known.Contains(graph.Edge{U: c[i], V: c[j]}) {
				return false
			}
		}
	}
	return true
}

// lightKnows is what light node x knows after the §3 exchange with its
// cluster neighbors cn: its own edges, and {u, y} for every u in cn and
// every neighbor y of x that answered u ~ y.
func lightKnows(g *graph.Graph, x graph.V, cn []graph.V) graph.EdgeList {
	var known graph.EdgeList
	for _, y := range g.Neighbors(x) {
		known = append(known, graph.Edge{U: x, V: y})
		for _, u := range cn {
			if y != u && g.HasEdge(u, y) {
				known = append(known, graph.Edge{U: u, V: y})
			}
		}
	}
	known.Normalize()
	return known
}

// covered reports whether some cluster holding a goal edge of c knows c
// in full, as a cluster or through one of its light nodes.
func covered(views []clusterView, c graph.Clique) bool {
	return slices.ContainsFunc(views, func(v clusterView) bool {
		return cliqueTouches(c, v.goal) && (knowsAll(v.known, c) ||
			slices.ContainsFunc(v.lights, func(l graph.EdgeList) bool { return knowsAll(l, c) }))
	})
}

// checkPassCoverage re-derives the pass res came from — newPass over the
// working graph g and er, then learn and lightNodes per cluster, on a
// scratch ledger — and checks that every Kp of g with a goal edge is
// covered. The re-derived goal edges must be the run's EmHat, which ties
// the check to the pass that ran. It returns the views.
func checkPassCoverage(t *testing.T, g *graph.Graph, er graph.EdgeList, prm Params, res *ArbResult) []clusterView {
	t.Helper()
	var scratch congest.Ledger
	ps, err := newPass(g, er, prm, congest.UnitCosts(), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	var views []clusterView
	var goal graph.EdgeList
	for _, cl := range ps.decomp.Clusters {
		imported, bad := ps.learn(cl, prm, &scratch, &ArbStats{})
		v := clusterView{goal: graph.Subtract(graph.NewEdgeList(cl.Edges), bad)}
		for _, u := range cl.Nodes {
			for _, w := range g.Neighbors(u) {
				v.known = append(v.known, graph.Edge{U: u, V: w}.Canon())
			}
			v.known = append(v.known, imported[u]...)
		}
		v.known.Normalize()
		if prm.FastK4 {
			for x, cn := range lightNodes(g, cl, ps.heavyThr) {
				v.lights = append(v.lights, lightKnows(g, x, cn))
			}
		}
		goal = append(goal, v.goal...)
		views = append(views, v)
	}
	goal.Normalize()
	if !slices.Equal(goal, res.EmHat) {
		t.Fatalf("re-derived pass has %d goal edges, the run %d", len(goal), len(res.EmHat))
	}
	for _, c := range g.ListCliques(prm.P) {
		if cliqueTouches(c, res.EmHat) && !covered(views, c) {
			t.Fatalf("K%d %v has a goal edge but no node knows it in full", prm.P, c)
		}
	}
	return views
}

// checkBroadcastCoverage checks the broadcast lister's argument on the
// orientation its bill is computed from: each member v of a Kp of g
// knows its own edges and its neighbors' out-edges, which is every edge
// of the clique.
func checkBroadcastCoverage(t *testing.T, g *graph.Graph, p int) {
	t.Helper()
	orient := g.DegeneracyOrientation()
	for _, c := range g.ListCliques(p) {
		for _, v := range c {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					e := graph.Edge{U: c[i], V: c[j]}
					if tail := orient.Owner(e); e.U != v && e.V != v && (tail < 0 || !g.HasEdge(v, tail)) {
						t.Fatalf("broadcast: member %d of %v never receives %v", v, c, e)
					}
				}
			}
		}
	}
}

// checkListCoverage replays List's passes with ArbList and checks each
// pass's coverage on its working graph, and the fallback broadcast's on
// what remains. Together they cover every Kp of g with an edge outside
// the surviving Es: its first goal edge's pass still had all its edges.
func checkListCoverage(t *testing.T, g *graph.Graph, prm Params, res *ListResult) {
	t.Helper()
	n := g.N()
	var es graph.EdgeList
	var esOrient *graph.Orientation
	er := graph.NewEdgeList(g.Edges())
	for iter := 0; iter < res.Iterations; iter++ {
		passPrm := prm
		passPrm.Seed = prm.Seed + int64(iter)*1_000_003
		wg, err := graph.Union(es, er).Graph(n)
		if err != nil {
			t.Fatal(err)
		}
		var scratch congest.Ledger
		pr, err := ArbList(wg, es, esOrient, er, passPrm, congest.UnitCosts(), &scratch)
		if err != nil {
			t.Fatal(err)
		}
		checkPassCoverage(t, wg, er, passPrm, pr)
		es, esOrient, er = pr.EsHat, pr.EsHatOrient, pr.ErHat
	}
	if !slices.Equal(es, res.Es) || res.FellBack != (len(er) > 0) {
		t.Fatalf("the replay left %d Es and %d Er edges, the run %d Es (fell back: %v)", len(es), len(er), len(res.Es), res.FellBack)
	}
	if len(er) > 0 {
		rest, err := graph.Union(es, er).Graph(n)
		if err != nil {
			t.Fatal(err)
		}
		checkBroadcastCoverage(t, rest, prm.P)
	}
}

// pocketWithOutsiders builds one dense bipartite pocket of size `pocket`
// (vertices 0..pocket-1, sides [0,half) and [half,pocket)), plus the
// given extra edges, over n vertices.
func pocketWithOutsiders(t *testing.T, n, pocket int, extra []graph.Edge) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	sub := graph.RandomBipartite(pocket, 0.8, rng)
	edges := append([]graph.Edge{}, sub.Edges()...)
	edges = append(edges, extra...)
	return graph.MustNew(n, edges)
}

// attach connects v to `count` distinct pocket vertices starting at lo.
func attach(v graph.V, lo, count int) []graph.Edge {
	out := make([]graph.Edge, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, graph.Edge{U: v, V: graph.V(lo + i)})
	}
	return out
}

func runArb(t *testing.T, g *graph.Graph, prm Params) *ArbResult {
	t.Helper()
	var ledger congest.Ledger
	res, err := ArbList(g, nil, nil, graph.NewEdgeList(g.Edges()), prm, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("ArbList: %v", err)
	}
	return res
}

// checkKnown checks the pass's coverage and that want, a Kp with a goal
// edge, is among the cliques it covers.
func checkKnown(t *testing.T, g *graph.Graph, prm Params, res *ArbResult, want graph.Clique) {
	t.Helper()
	views := checkPassCoverage(t, g, graph.NewEdgeList(g.Edges()), prm, res)
	if !covered(views, want) {
		t.Errorf("no node knows K%d %v in full", prm.P, want)
	}
}

// TestCoverageHeavyHeavyOutsideEdge: K4 {u, w, v, v'} where the outside
// edge {v, v'} joins two C-heavy nodes. Case 1 of §2.4.2: the edge is
// oriented away from one of them, which ships all its out-edges into the
// cluster.
func TestCoverageHeavyHeavyOutsideEdge(t *testing.T) {
	const pocket, half = 40, 20
	u, w := graph.V(0), graph.V(half) // opposite sides: {u,w} likely a pocket edge
	v, vp := graph.V(50), graph.V(51)
	extra := []graph.Edge{
		{U: u, V: w}, // ensure the goal edge exists
		{U: v, V: vp},
		{U: v, V: u}, {U: v, V: w},
		{U: vp, V: u}, {U: vp, V: w},
	}
	// Make v and v' heavy *outsiders*: their in-cluster degree must exceed
	// the heavy threshold (4) while their total degree stays at the peel
	// threshold (8) so they are peeled out of the cluster. Each gets u, w
	// plus five more pocket neighbors (g_{v,C} = 7) plus the edge {v,v'}.
	extra = append(extra, attach(v, 2, 5)...)
	extra = append(extra, attach(vp, half+2, 5)...)
	g := pocketWithOutsiders(t, 60, pocket, extra)
	prm := Params{P: 4, Seed: 1, ClusterThreshold: 8, HeavyThreshold: 4}
	res := runArb(t, g, prm)
	if res.Stats.Clusters == 0 {
		t.Fatal("pocket did not become a cluster")
	}
	if res.Stats.HeavyNodes < 2 {
		t.Fatalf("v and v' should be heavy; census: %+v", res.Stats)
	}
	want := graph.Clique{u, w, v, vp}
	if !res.EmHat.Contains(graph.Edge{U: u, V: w}) {
		t.Skip("goal edge landed outside EmHat in this decomposition")
	}
	checkKnown(t, g, prm, res, want)
}

// TestCoverageLightOutsideEdge: K4 {u, w, v, v'} where v is C-light. Case
// 2 of §2.4.2: the good endpoint of the goal edge broadcasts its light
// list and learns {v, v'} from the replies.
func TestCoverageLightOutsideEdge(t *testing.T) {
	const pocket, half = 40, 20
	u, w := graph.V(0), graph.V(half)
	v, vp := graph.V(50), graph.V(51)
	extra := []graph.Edge{
		{U: u, V: w},
		{U: v, V: vp},
		{U: v, V: u}, {U: v, V: w}, // v has exactly 2 pocket neighbors → light
		{U: vp, V: u}, {U: vp, V: w},
	}
	g := pocketWithOutsiders(t, 60, pocket, extra)
	prm := Params{P: 4, Seed: 2, ClusterThreshold: 8, HeavyThreshold: 6}
	res := runArb(t, g, prm)
	if res.Stats.Clusters == 0 {
		t.Fatal("pocket did not become a cluster")
	}
	if res.Stats.LightNodes == 0 {
		t.Fatalf("v, v' should be light; census: %+v", res.Stats)
	}
	want := graph.Clique{u, w, v, vp}
	if !res.EmHat.Contains(graph.Edge{U: u, V: w}) {
		t.Skip("goal edge landed outside EmHat in this decomposition")
	}
	checkKnown(t, g, prm, res, want)
}

// TestCoverageLightEdgeFastK4: same light scenario under the §3 fast-K4
// variant, where no light learning runs and the light node itself must
// know the clique.
func TestCoverageLightEdgeFastK4(t *testing.T) {
	const pocket, half = 40, 20
	u, w := graph.V(0), graph.V(half)
	v, vp := graph.V(50), graph.V(51)
	extra := []graph.Edge{
		{U: u, V: w},
		{U: v, V: vp},
		{U: v, V: u}, {U: v, V: w},
		{U: vp, V: u}, {U: vp, V: w},
	}
	g := pocketWithOutsiders(t, 60, pocket, extra)
	prm := Params{P: 4, Seed: 3, ClusterThreshold: 8, HeavyThreshold: 6, FastK4: true}
	res := runArb(t, g, prm)
	if res.Stats.Clusters == 0 {
		t.Fatal("pocket did not become a cluster")
	}
	want := graph.Clique{u, w, v, vp}
	if !res.EmHat.Contains(graph.Edge{U: u, V: w}) {
		t.Skip("goal edge landed outside EmHat in this decomposition")
	}
	checkKnown(t, g, prm, res, want)
}

// TestCoverageK5WithTwoOutsiders: a K5 with two vertices outside the
// cluster — the case that broke the Eden et al. approach for p ≥ 5 (§1.1)
// and that the paper's edge-import machinery handles uniformly.
func TestCoverageK5WithTwoOutsiders(t *testing.T) {
	const pocket, half = 40, 20
	u, w, x := graph.V(0), graph.V(half), graph.V(1) // x on u's side; {x,w} crosses
	v, vp := graph.V(50), graph.V(51)
	extra := []graph.Edge{
		{U: u, V: w}, {U: x, V: w}, {U: u, V: x}, // in-pocket triangle (u,x same side: add edge)
		{U: v, V: vp},
		{U: v, V: u}, {U: v, V: w}, {U: v, V: x},
		{U: vp, V: u}, {U: vp, V: w}, {U: vp, V: x},
	}
	g := pocketWithOutsiders(t, 60, pocket, extra)
	prm := Params{P: 5, Seed: 4, ClusterThreshold: 8, HeavyThreshold: 6}
	res := runArb(t, g, prm)
	if res.Stats.Clusters == 0 {
		t.Fatal("pocket did not become a cluster")
	}
	want := graph.Clique{u, x, w, v, vp}
	touched := false
	for i := 0; i < len(want); i++ {
		for j := i + 1; j < len(want); j++ {
			if res.EmHat.Contains(graph.Edge{U: want[i], V: want[j]}) {
				touched = true
			}
		}
	}
	if !touched {
		t.Skip("K5 has no goal edge in this decomposition")
	}
	checkKnown(t, g, prm, res, want)
}

// TestBadNodesExcludedFromLightLearning: on the celebrity workload, bad
// nodes must not run the light-learning exchange — their light lists are
// the ones that blow the budget.
func TestBadNodesExcludedFromLightLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, pocket = 300, 60
	var edges []graph.Edge
	sub := graph.RandomBipartite(pocket, 0.8, rng)
	edges = append(edges, sub.Edges()...)
	celeb := graph.V(0)
	for v := pocket; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: celeb})
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(2 + rng.Intn(pocket-2))})
	}
	g := graph.MustNew(n, edges)
	var withLedger, withoutLedger congest.Ledger
	if _, err := ArbList(g, nil, nil, graph.NewEdgeList(g.Edges()),
		Params{P: 4, Seed: 6, ClusterThreshold: 10, BadThreshold: 20}, congest.UnitCosts(), &withLedger); err != nil {
		t.Fatal(err)
	}
	if _, err := ArbList(g, nil, nil, graph.NewEdgeList(g.Edges()),
		Params{P: 4, Seed: 6, ClusterThreshold: 10, BadThreshold: 1 << 30}, congest.UnitCosts(), &withoutLedger); err != nil {
		t.Fatal(err)
	}
	on := withLedger.Phase("arb-light-learn").Rounds
	off := withoutLedger.Phase("arb-light-learn").Rounds
	if on >= off {
		t.Errorf("bad-node exclusion should shrink light-learning: %d (on) vs %d (off)", on, off)
	}
}
