package sparselist

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
	"kplist/internal/partition"
	"kplist/internal/routing"
	"kplist/internal/workload"
)

func TestCongestedCliqueMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n    int
		dens float64
		p    int
	}{
		{60, 0.3, 3},
		{60, 0.3, 4},
		{80, 0.25, 5},
		{50, 0.5, 4},
		{100, 0.1, 3},
	} {
		g := graph.ErdosRenyi(tc.n, tc.dens, rng)
		var ledger congest.Ledger
		res, err := CongestedCliqueOnGraph(g, tc.p, 42, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatalf("n=%d p=%d: %v", tc.n, tc.p, err)
		}
		got, want := res.Cliques.Cliques(), g.ListCliques(tc.p)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("n=%d p=%d: got %d cliques, want %d", tc.n, tc.p, len(got), len(want))
		}
		// The listing step enumerates the real edges once, so no clique
		// reaches the bag twice.
		if rows := len(slices.Collect(res.Cliques.All())); rows != len(want) {
			t.Errorf("n=%d p=%d: %d cliques emitted for %d distinct", tc.n, tc.p, rows, len(want))
		}
		if ledger.Rounds() < 1 {
			t.Error("listing should cost at least one round")
		}
	}
}

func TestCongestedCliquePlantedCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, planted := graph.PlantedCliques(120, 6, 3, 0.03, rng)
	var ledger congest.Ledger
	res, err := CongestedCliqueOnGraph(g, 6, 7, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	listed := res.Cliques.Cliques()
	for _, c := range planted {
		if _, ok := slices.BinarySearchFunc(listed, graph.Clique(c), slices.Compare); !ok {
			t.Errorf("planted K6 %v not listed", c)
		}
	}
}

func TestCongestedCliqueEmptyAndTiny(t *testing.T) {
	var ledger congest.Ledger
	g := graph.MustNew(5, nil)
	res, err := CongestedCliqueOnGraph(g, 3, 1, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if len(res.Cliques.Cliques()) != 0 {
		t.Error("empty graph has no cliques")
	}
	if _, err := CongestedClique(nil, graph.MustNew(0, nil), 3, 1, false, congest.UnitCosts(), &ledger); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := CongestedClique(nil, g, 2, 1, false, congest.UnitCosts(), &ledger); err == nil {
		t.Error("p=2 should error")
	}
}

// TestTheorem13RoundShape checks the headline shape of Theorem 1.3: at
// fixed n, rounds grow linearly in m beyond the crossover m ≈ n^{1+2/p}
// and sit near the floor below it.
func TestTheorem13RoundShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, p := 200, 3
	roundsAt := func(m int) int64 {
		g := graph.GNM(n, m, rng)
		var ledger congest.Ledger
		_, err := CongestedCliqueOnGraph(g, p, 5, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatal(err)
		}
		return ledger.Rounds()
	}
	sparse := roundsAt(400)
	dense := roundsAt(10000)
	if dense <= sparse {
		t.Errorf("dense graph (m=10000) rounds %d should exceed sparse (m=400) rounds %d", dense, sparse)
	}
	// Doubling m from dense should roughly double rounds (generous slack
	// for partition randomness and ceilings).
	denser := roundsAt(19900) // complete graph at n=200
	ratio := float64(denser) / float64(dense)
	if ratio < 1.0 || ratio > 2.6 {
		t.Errorf("rounds should scale near-linearly with m: %d → %d (ratio %v)", dense, denser, ratio)
	}
}

func TestFakeEdgePaddingOnlyAffectsBill(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(50, 0.2, rng)
	var l1, l2 congest.Ledger
	plain, err := CongestedClique(nil, g, 3, 9, false, congest.UnitCosts(), &l1)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := CongestedClique(nil, g, 3, 9, true, congest.UnitCosts(), &l2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(plain.Cliques.Cliques(), padded.Cliques.Cliques(), slices.Equal) {
		t.Error("padding changed the output")
	}
	if l2.Rounds() < l1.Rounds() {
		t.Error("padding cannot reduce the bill")
	}
	if padded.TotalMessages <= plain.TotalMessages {
		t.Error("padding should add fake traffic")
	}
}

// Property: the congested-clique lister is exact on random graphs across
// seeds, densities, and p.
func TestQuickCongestedCliqueExact(t *testing.T) {
	f := func(seed int64, densRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 3 + int(pRaw%3)
		g := graph.ErdosRenyi(40, 0.15+float64(densRaw%100)/300.0, rng)
		var ledger congest.Ledger
		res, err := CongestedCliqueOnGraph(g, p, seed, congest.UnitCosts(), &ledger)
		if err != nil {
			return false
		}
		return slices.EqualFunc(res.Cliques.Cliques(), g.ListCliques(p), slices.Equal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// clusterFixture builds a decomposition of a dense graph and returns its
// biggest cluster plus router/responsibility over the full vertex range.
func clusterFixture(t *testing.T, g *graph.Graph, threshold int) (*expander.Cluster, *routing.Router, *routing.Responsibility) {
	t.Helper()
	var ledger congest.Ledger
	d, err := expander.Decompose(g.N(), graph.NewEdgeList(g.Edges()),
		expander.Params{Threshold: threshold, Seed: 3}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	best := d.Clusters[0]
	for _, cl := range d.Clusters {
		if cl.K() > best.K() {
			best = cl
		}
	}
	rt := routing.NewRouter(best, g.N(), congest.UnitCosts())
	rs := routing.NewResponsibility(best, g.N())
	return best, rt, rs
}

func TestInClusterListsEverythingItKnows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(120, 0.3, rng)
	cl, rt, rs := clusterFixture(t, g, 6)

	// Give the cluster the whole graph, grouped by responsible member
	// (the owner of each edge's lower endpoint).
	heldBy := make(map[graph.V]graph.EdgeList)
	for _, e := range g.Edges() {
		owner := rs.OwnerOf(e.U)
		heldBy[owner] = append(heldBy[owner], e)
	}
	var ledger congest.Ledger
	in := Input{N: g.N(), P: 4, Seed: 11}
	res, err := InCluster(rt, rs, in, congest.UnitCosts(), &ledger, heldBy)
	if err != nil {
		t.Fatalf("InCluster: %v", err)
	}
	got, want := res.Cliques.Cliques(), g.ListCliques(4)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("in-cluster listing: got %d cliques, want %d (cluster k=%d)",
			len(got), len(want), cl.K())
	}
	if ledger.Phase("cluster-partition-broadcast").Rounds == 0 {
		t.Error("partition broadcast not billed")
	}
	if ledger.Phase("cluster-sparse-listing").Rounds == 0 {
		t.Error("listing delivery not billed")
	}
}

func TestInClusterRejectsForeignHolder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(100, 0.3, rng)
	_, rt, rs := clusterFixture(t, g, 6)
	outsider := graph.V(-1)
	for v := 0; v < g.N(); v++ {
		if !rt.Cluster().Contains(graph.V(v)) {
			outsider = graph.V(v)
			break
		}
	}
	if outsider == -1 {
		t.Skip("cluster covers whole graph")
	}
	heldBy := map[graph.V]graph.EdgeList{outsider: {graph.Edge{U: 0, V: 1}}}
	var ledger congest.Ledger
	_, err := InCluster(rt, rs, Input{N: g.N(), P: 4, Seed: 1}, congest.UnitCosts(), &ledger, heldBy)
	if err == nil {
		t.Error("foreign holder should be rejected")
	}
}

func TestResultLoadStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(80, 0.3, rng)
	var ledger congest.Ledger
	res, err := CongestedCliqueOnGraph(g, 4, 3, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxNodeLoad <= 0 || res.TotalMessages <= 0 || res.Parts < 1 {
		t.Errorf("stats not populated: %+v", res)
	}
	if res.MaxPairEdges <= 0 {
		t.Error("MaxPairEdges should be positive for a non-empty graph")
	}
	if res.MaxNodeLoad > res.TotalMessages*2 {
		t.Error("per-node load cannot exceed total traffic")
	}
}

func TestCongestedCliqueDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.ErdosRenyi(70, 0.3, rng)
	run := func() (int64, int) {
		var ledger congest.Ledger
		res, err := CongestedCliqueOnGraph(g, 4, 99, congest.UnitCosts(), &ledger)
		if err != nil {
			t.Fatal(err)
		}
		return ledger.Rounds(), len(res.Cliques.Cliques())
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", r1, c1, r2, c2)
	}
}

func TestInClusterEmptyHolders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.ErdosRenyi(100, 0.3, rng)
	_, rt, rs := clusterFixture(t, g, 6)
	var ledger congest.Ledger
	res, err := InCluster(rt, rs, Input{N: g.N(), P: 4, Seed: 1}, congest.UnitCosts(), &ledger, nil)
	if err != nil {
		t.Fatalf("empty holders should be a valid (empty) problem: %v", err)
	}
	if len(res.Cliques.Cliques()) != 0 {
		t.Error("no edges means no cliques")
	}
}

// TestCheckCliquesRejectsFabricated: the guard CongestedCliqueOnGraph runs
// over every listed tuple refuses a bag holding one that is not a clique
// of the graph, and accepts the graph's own listing.
func TestCheckCliquesRejectsFabricated(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	bag := graph.NewCliqueBag(3)
	bag.Add(graph.Clique{0, 1, 2})
	if err := checkCliques(g, bag); err != nil {
		t.Fatalf("the graph's only triangle: %v", err)
	}
	bag.Add(graph.Clique{1, 2, 3}) // edge {1,3} is missing
	err := checkCliques(g, bag)
	if err == nil || !strings.Contains(err.Error(), "fabricated clique [1 2 3]") {
		t.Fatalf("non-clique tuple: %v, want a fabricated clique error", err)
	}
}

// TestListedCliquesWereDelivered pins the argument that lets the listing
// step enumerate the real edges once: every clique the engine returns was
// fully received by some listing node. The delivery is rebuilt from the
// run's partition and subscription table (its total must match the billed
// TotalMessages), and each listed clique is looked up in it.
func TestListedCliquesWereDelivered(t *testing.T) {
	gen := func(spec workload.Spec) *graph.Graph {
		inst, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return inst.G
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi", graph.ErdosRenyi(150, 0.2, rand.New(rand.NewSource(21)))},
		{"planted-clique", gen(workload.DefaultSpec(workload.FamilyPlantedClique, 200, 22))},
		{"kronecker", gen(workload.DefaultSpec(workload.FamilyKronecker, 256, 23))},
	} {
		name, g := tc.name, tc.g
		for _, p := range []int{3, 4} {
			const seed = 17
			var ledger congest.Ledger
			res, err := CongestedCliqueOnGraph(g, p, seed, congest.UnitCosts(), &ledger)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			n := g.N()
			tparts := partition.PartsForListing(n, p)
			part := partition.Random(n, tparts, rand.New(rand.NewSource(seed)))
			asg, err := partition.NewAssignment(n, tparts, p)
			if err != nil {
				t.Fatal(err)
			}
			delivered := make([]map[graph.Edge]bool, n)
			var msgs int64
			for _, e := range g.Edges() {
				for _, s := range asg.Subscribers(part.PartOf[e.U], part.PartOf[e.V]) {
					if delivered[s] == nil {
						delivered[s] = make(map[graph.Edge]bool)
					}
					delivered[s][e] = true
					msgs++
				}
			}
			if msgs != res.TotalMessages {
				t.Fatalf("%s p=%d: rebuilt delivery sends %d words, the run billed %d", name, p, msgs, res.TotalMessages)
			}
			cliques := res.Cliques.Cliques()
			if len(cliques) == 0 {
				t.Fatalf("%s p=%d: no cliques listed; the check would be vacuous", name, p)
			}
			for _, c := range cliques {
				if !slices.ContainsFunc(asg.Subscribers(part.PartOf[c[0]], part.PartOf[c[1]]), func(s int32) bool {
					for i := range c {
						for j := i + 1; j < len(c); j++ {
							if !delivered[s][graph.Edge{U: c[i], V: c[j]}] {
								return false
							}
						}
					}
					return true
				}) {
					t.Fatalf("%s p=%d: no listing node received every edge of %v", name, p, c)
				}
			}
		}
	}
}
