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
// endpoint with a good witness) must be listed by the cluster pass —
// black-box through ArbList, but with the scenario constructed so the
// relevant code path is the only one that can find the clique.

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
	res := runArb(t, g, Params{P: 4, Seed: 1, ClusterThreshold: 8, HeavyThreshold: 4})
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
	if _, ok := slices.BinarySearchFunc(res.Cliques.Cliques(), want, slices.Compare); !ok {
		t.Errorf("heavy-heavy K4 %v not listed", want)
	}
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
	res := runArb(t, g, Params{P: 4, Seed: 2, ClusterThreshold: 8, HeavyThreshold: 6})
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
	if _, ok := slices.BinarySearchFunc(res.Cliques.Cliques(), want, slices.Compare); !ok {
		t.Errorf("light-endpoint K4 %v not listed", want)
	}
}

// TestCoverageLightEdgeFastK4: same light scenario under the §3 fast-K4
// variant, where the light node itself must list the clique.
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
	res := runArb(t, g, Params{P: 4, Seed: 3, ClusterThreshold: 8, HeavyThreshold: 6, FastK4: true})
	if res.Stats.Clusters == 0 {
		t.Fatal("pocket did not become a cluster")
	}
	want := graph.Clique{u, w, v, vp}
	if _, ok := slices.BinarySearchFunc(res.Cliques.Cliques(), want, slices.Compare); !ok {
		t.Errorf("fast-K4 light pass missed %v", want)
	}
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
	res := runArb(t, g, Params{P: 5, Seed: 4, ClusterThreshold: 8, HeavyThreshold: 6})
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
	if _, ok := slices.BinarySearchFunc(res.Cliques.Cliques(), want, slices.Compare); !ok {
		t.Errorf("K5 with two outsiders %v not listed", want)
	}
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
