package baseline

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// broadcastKnows reports whether member v of a clique holding edge e
// receives it in the broadcast lister: v knows its own edges and every
// out-edge of its neighbors under the orientation the bill is computed
// from.
func broadcastKnows(g *graph.Graph, orient *graph.Orientation, v graph.V, e graph.Edge) bool {
	tail := orient.Owner(e)
	return e.U == v || e.V == v || (tail >= 0 && g.HasEdge(v, tail))
}

// checkKnowsAll fails unless known, a per-edge knowledge test, holds every
// edge of c.
func checkKnowsAll(t *testing.T, who string, c graph.Clique, known func(graph.Edge) bool) {
	t.Helper()
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if e := (graph.Edge{U: c[i], V: c[j]}); !known(e) {
				t.Fatalf("%s never learns %v of %v", who, e, c)
			}
		}
	}
}

// TestBroadcastListExact: every Kp of g is known in full by each of its
// members — each edge is oriented away from a member, who pushes it to
// the others — and the bill is the orientation's max out-degree.
func TestBroadcastListExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{3, 4, 5} {
		g := graph.ErdosRenyi(80, 0.3, rng)
		var ledger congest.Ledger
		if err := BroadcastList(g, p, congest.UnitCosts(), &ledger); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		orient := g.DegeneracyOrientation()
		listed := g.ListCliques(p)
		if len(listed) == 0 {
			t.Fatalf("p=%d: no cliques; the check would be vacuous", p)
		}
		for _, c := range listed {
			for _, v := range c {
				checkKnowsAll(t, fmt.Sprintf("p=%d: member %d", p, v), c, func(e graph.Edge) bool {
					return broadcastKnows(g, orient, v, e)
				})
			}
		}
		// Bill: rounds = max out-degree of the degeneracy orientation.
		wantRounds := int64(orient.MaxOutDegree())
		if gotRounds := ledger.Phase("broadcast-listing").Rounds; gotRounds != wantRounds {
			t.Errorf("p=%d: rounds = %d, want %d", p, gotRounds, wantRounds)
		}
	}
}

func TestBroadcastListEmptyAndErrors(t *testing.T) {
	var ledger congest.Ledger
	empty := graph.MustNew(5, nil)
	if err := BroadcastList(empty, 3, congest.UnitCosts(), &ledger); err != nil || ledger.Messages() != 0 {
		t.Errorf("empty: %v, %d words", err, ledger.Messages())
	}
	if err := BroadcastList(empty, 1, congest.UnitCosts(), &ledger); err == nil {
		t.Error("p=1 should error")
	}
}

func TestBroadcastListRoundsScaleWithDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sparse := graph.ErdosRenyi(200, 0.05, rng)
	dense := graph.ErdosRenyi(200, 0.5, rng)
	var l1, l2 congest.Ledger
	if err := BroadcastList(sparse, 4, congest.UnitCosts(), &l1); err != nil {
		t.Fatal(err)
	}
	if err := BroadcastList(dense, 4, congest.UnitCosts(), &l2); err != nil {
		t.Fatal(err)
	}
	if l2.Rounds() <= l1.Rounds() {
		t.Errorf("dense broadcast (%d rounds) should cost more than sparse (%d)", l2.Rounds(), l1.Rounds())
	}
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

// touches reports whether some edge of c is in the normalized el.
func touches(c graph.Clique, el graph.EdgeList) bool {
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if el.Contains(graph.Edge{U: c[i], V: c[j]}) {
				return true
			}
		}
	}
	return false
}

// lightKnows is what light node x knows after asking its neighbors about
// its cluster neighbors cn: its own edges, and {u, y} for every u in cn
// and every neighbor y of x that answered u ~ y.
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

// edenCoverage re-runs the Eden passes of prm over g on a scratch ledger
// and checks coverage on edenKnowledge's value for each cluster formed:
// every K4 of g with a cluster edge is known in full by that cluster's
// collector or by one of its light nodes, and every other K4 lies in the
// rest, where each of its members knows it after the broadcast. The
// scratch bill must be the run's, which ties the check to the run. It
// returns whether each K4 of g is covered by a cluster.
func edenCoverage(t *testing.T, g *graph.Graph, prm EdenK4Params, run *congest.Ledger) map[string]bool {
	t.Helper()
	var scratch congest.Ledger
	clusters, rest, err := edenPasses(g, prm, congest.UnitCosts(), &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scratch.Phases(), run.Phases()) {
		t.Fatalf("re-run bill %+v differs from the run's %+v", scratch.Phases(), run.Phases())
	}
	heavyThr := prm.withDefaults(g.N()).HeavyThreshold
	type view struct{ edges, collector graph.EdgeList }
	views := make([]view, len(clusters))
	lights := make([][]graph.EdgeList, len(clusters))
	for i, cl := range clusters {
		kn := edenKnowledge(g, cl, heavyThr)
		views[i] = view{graph.NewEdgeList(cl.Edges), kn.collector}
		for x, cn := range kn.lights {
			lights[i] = append(lights[i], lightKnows(g, x, cn))
		}
	}
	clusterKnows := func(c graph.Clique) bool {
		for i, v := range views {
			if touches(c, v.edges) && (knowsAll(v.collector, c) ||
				slices.ContainsFunc(lights[i], func(l graph.EdgeList) bool { return knowsAll(l, c) })) {
				return true
			}
		}
		return false
	}
	restGraph, err := rest.Graph(g.N())
	if err != nil {
		t.Fatal(err)
	}
	orient := restGraph.DegeneracyOrientation()
	byCluster := make(map[string]bool)
	for _, c := range g.ListCliques(4) {
		if byCluster[c.String()] = clusterKnows(c); byCluster[c.String()] {
			continue
		}
		if !knowsAll(rest, c) {
			t.Fatalf("K4 %v has a cluster edge but no node of its cluster knows it in full", c)
		}
		for _, v := range c {
			checkKnowsAll(t, fmt.Sprintf("broadcast member %d", v), c, func(e graph.Edge) bool {
				return broadcastKnows(restGraph, orient, v, e)
			})
		}
	}
	return byCluster
}

func TestEdenK4Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dens := range []float64{0.2, 0.4} {
		g := graph.ErdosRenyi(120, dens, rng)
		var ledger congest.Ledger
		got, err := EdenK4List(g, EdenK4Params{Seed: 3}, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("EdenK4List: %v", err)
		}
		if got, want := got.Cliques(), g.ListCliques(4); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("dens=%v: got %d cliques, want %d", dens, len(got), len(want))
		}
		if ledger.Rounds() == 0 {
			t.Error("no rounds charged")
		}
	}
}

func TestEdenK4EmptyGraph(t *testing.T) {
	var ledger congest.Ledger
	got, err := EdenK4List(graph.MustNew(0, nil), EdenK4Params{}, congest.UnitCosts(), &ledger)
	if err != nil || len(got.Cliques()) != 0 {
		t.Errorf("empty graph: %v, %d", err, len(got.Cliques()))
	}
}

func TestEdenK4WithClusters(t *testing.T) {
	// Force clusters with a small explicit threshold so the heavy/light
	// machinery actually runs.
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(140, 0.4, rng)
	prm := EdenK4Params{ClusterThreshold: 6, Seed: 4}
	var ledger congest.Ledger
	if _, err := EdenK4List(g, prm, congest.UnitCosts(), &ledger); err != nil {
		t.Fatalf("EdenK4List: %v", err)
	}
	byCluster := edenCoverage(t, g, prm, &ledger)
	clustered := 0
	for _, ok := range byCluster {
		if ok {
			clustered++
		}
	}
	if clustered == 0 {
		t.Fatalf("no K4 of %d was covered by a cluster", len(byCluster))
	}
	if ledger.Phase("eden-naive-listing").Rounds == 0 {
		t.Error("naive listing not billed — clusters did not form?")
	}
}

func TestEdenPlantedCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, planted := graph.PlantedCliques(130, 4, 5, 0.05, rng)
	prm := EdenK4Params{ClusterThreshold: 5, Seed: 5}
	var ledger congest.Ledger
	if _, err := EdenK4List(g, prm, congest.UnitCosts(), &ledger); err != nil {
		t.Fatal(err)
	}
	byCluster := edenCoverage(t, g, prm, &ledger)
	for _, c := range planted {
		if _, ok := byCluster[graph.Clique(c).String()]; !ok {
			t.Errorf("planted K4 %v is not a K4 of the graph", c)
		}
	}
}

// TestEdenCoverageOutsiders crafts the two cases in which a K4 with a
// cluster edge {u, w} has both other vertices v, v' outside the cluster:
// when both are C-heavy only the collector, fed their whole
// neighborhoods, knows the outside edge {v, v'}; when both are C-light
// only they do, after asking about each of their cluster neighbors.
func TestEdenCoverageOutsiders(t *testing.T) {
	const pocket, half = 40, 20
	u, w := graph.V(0), graph.V(half)
	v, vp := graph.V(50), graph.V(51)
	attach := func(x graph.V, lo, count int) []graph.Edge {
		var out []graph.Edge
		for i := 0; i < count; i++ {
			out = append(out, graph.Edge{U: x, V: graph.V(lo + i)})
		}
		return out
	}
	k4 := []graph.Edge{{U: u, V: w}, {U: v, V: vp}, {U: v, V: u}, {U: v, V: w}, {U: vp, V: u}, {U: vp, V: w}}
	for _, tc := range []struct {
		name  string
		extra []graph.Edge
		heavy int
	}{
		// v and v' reach 7 pocket vertices each: heavy at threshold 4,
		// yet of degree 8, so the peel at threshold 8 leaves them out.
		{"heavy", append(append(slices.Clone(k4), attach(v, 2, 5)...), attach(vp, half+2, 5)...), 4},
		// v and v' reach only u and w: light at threshold 6.
		{"light", k4, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			edges := append(graph.RandomBipartite(pocket, 0.8, rng).Edges(), tc.extra...)
			g := graph.MustNew(60, edges)
			prm := EdenK4Params{ClusterThreshold: 8, HeavyThreshold: tc.heavy, Seed: 1}
			var ledger congest.Ledger
			if _, err := EdenK4List(g, prm, congest.UnitCosts(), &ledger); err != nil {
				t.Fatal(err)
			}
			want := graph.Clique{u, w, v, vp}
			if !edenCoverage(t, g, prm, &ledger)[want.String()] {
				t.Errorf("no node of a cluster holding {%d,%d} knows %v in full", u, w, want)
			}
		})
	}
}
