package bench

import (
	"fmt"
	"math"
	"math/rand"

	"kplist/internal/algebraic"
	"kplist/internal/arblist"
	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/core"
	"kplist/internal/graph"
	"kplist/internal/sparselist"
)

// Config sizes an experiment run. The zero value is filled with the
// defaults used by cmd/benchrunner; bench_test.go passes smaller sizes.
type Config struct {
	// Sizes is the n sweep for E1/E2/E4/E5.
	Sizes []int
	// Density is the background edge probability for CONGEST sweeps.
	Density float64
	// EdgeCounts is the m sweep for E3 (at fixed CCN).
	EdgeCounts []int
	// CCN is the fixed n for the E3 congested-clique sweep.
	CCN int
	// Ps is the clique-size sweep for E1/E3/E5.
	Ps []int
	// Seed drives all randomness.
	Seed int64
	// PoolSizes is the session-pool capacity sweep for E11 (default
	// 1, 2, 4).
	PoolSizes []int
	// Repeats averages each sweep point over this many seeds (default 3)
	// to damp the discrete k^{1/p} radix and min-degree variance.
	Repeats int
	// FinalExponent is the outer-loop cutoff passed to the pipeline. The
	// paper's max(3/4, p/(p+2)) only bites at astronomical n (see
	// DESIGN.md §4); the default 0.45 forces the machinery to run so its
	// round structure is measurable. Set to a negative value to use the
	// paper-literal cutoff.
	FinalExponent float64
	// Workers bounds the host goroutines used to simulate parallel
	// per-cluster phases (threaded through core and arblist). 0 means
	// GOMAXPROCS; the measured round bills are identical for every value —
	// only wall-clock changes.
	Workers int
	// WorkloadSizes is the n sweep for the E9/E10 workload-family
	// experiments; empty uses a default ladder that keeps the dense
	// families within the exact-listing budget.
	WorkloadSizes []int
	// DynN is the vertex count for the E12 dynamic-graph churn experiment
	// (default 256, the acceptance-benchmark size).
	DynN int
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{256, 384, 512, 768, 1024, 1536, 2048}
	}
	if c.Density == 0 {
		c.Density = 0.7
	}
	if len(c.EdgeCounts) == 0 {
		c.EdgeCounts = []int{500, 1000, 2000, 4000, 8000, 16000, 32000}
	}
	if c.CCN == 0 {
		c.CCN = 256
	}
	if len(c.Ps) == 0 {
		c.Ps = []int{4, 5, 6}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.FinalExponent == 0 {
		c.FinalExponent = 0.4
	} else if c.FinalExponent < 0 {
		c.FinalExponent = 0
	}
	return c
}

// communityGraph generates the round-shape workload: four dense bipartite
// pockets (the clusters — heavy communication loads, zero pocket-internal
// cliques), satellite vertices attached below the peel threshold (so they
// are genuinely outside the clusters: some heavy, some light, with
// satellite–satellite edges for the light-learning phase to discover), and
// a few planted K6s so listing outputs are non-trivial. It returns the
// graph and the explicit cluster threshold matched to the pocket density.
// Exact listing stays tractable at n in the thousands because bipartite
// pockets are Kp-free.
func communityGraph(n int, density float64, seed int64) (*graph.Graph, int) {
	rng := rand.New(rand.NewSource(seed + int64(n)))
	const pockets = 4
	pocketSize := n / 6
	if pocketSize < 8 {
		pocketSize = 8
	}
	var edges []graph.Edge
	base := 0
	for c := 0; c < pockets && base+pocketSize <= n; c++ {
		sub := graph.RandomBipartite(pocketSize, density, rng)
		for _, e := range sub.Edges() {
			edges = append(edges, graph.Edge{U: e.U + graph.V(base), V: e.V + graph.V(base)})
		}
		base += pocketSize
	}
	// Threshold: half the expected pocket cross-degree, so pockets survive
	// the peel and satellites do not.
	threshold := int(density * float64(pocketSize) / 4)
	if threshold < 2 {
		threshold = 2
	}
	// Satellites: heavy ones exceed the n^{1/4}-ish heavy threshold within
	// one pocket; light ones sit below it; all stay below the peel
	// threshold. Light satellites also link to each other so the
	// light-learning phase has outside edges to discover.
	heavyDeg := int(math.Pow(float64(n), 0.25)) + 4
	if heavyDeg >= threshold {
		heavyDeg = threshold - 1
	}
	var prevLight graph.V = -1
	for v := base; v < n; v++ {
		pocket := rng.Intn(pockets)
		lo := pocket * pocketSize
		if v%3 == 0 && heavyDeg > 0 { // heavy satellite
			for i := 0; i < heavyDeg; i++ {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(lo + rng.Intn(pocketSize))})
			}
		} else { // light satellite
			for i := 0; i < 3; i++ {
				edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(lo + rng.Intn(pocketSize))})
			}
			if prevLight >= 0 {
				edges = append(edges, graph.Edge{U: graph.V(v), V: prevLight})
			}
			prevLight = graph.V(v)
		}
	}
	g := graph.MustNew(n, edges)
	// Plant three K6s on top (anywhere) so the listing output is nonzero.
	planted, _ := graph.PlantedCliques(n, 6, 3, 0, rng)
	full := graph.Union(graph.NewEdgeList(g.Edges()), graph.NewEdgeList(planted.Edges()))
	return graph.MustNew(n, full), threshold
}

// E1Theorem11 sweeps n for each p and measures the Theorem 1.1 pipeline's
// round bill; the paper predicts exponent max(3/4, p/(p+2)).
func E1Theorem11(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	var out []Series
	for _, p := range cfg.Ps {
		// Workload-derived reference: the dominant in-cluster listing phase
		// charges p²·m_C/k^{1+2/p} with m_C ∝ n² and k ∝ n on the community
		// family, i.e. exponent 1−2/p (see DESIGN.md §4 for the mapping to
		// the theorem's n^{p/(p+2)}).
		expected := 1 - 2.0/float64(p)
		s := Series{
			Name:     fmt.Sprintf("E1: Theorem 1.1 rounds vs n (p=%d, community workload, pocket density %.2f)", p, cfg.Density),
			XLabel:   "n",
			Expected: expected,
		}
		for _, n := range cfg.Sizes {
			var sumRounds, sumMsgs int64
			var sumCliques, sumOuter float64
			for r := 0; r < cfg.Repeats; r++ {
				seed := cfg.Seed + int64(r)*9973
				g, thr := communityGraph(n, cfg.Density, seed)
				var ledger congest.Ledger
				res, err := core.ListCliques(g, core.Params{
					P: p, Seed: seed, FinalExponent: cfg.FinalExponent, ClusterThreshold: thr,
					Workers: cfg.Workers,
				}, congest.UnitCosts(), &ledger)
				if err != nil {
					return nil, fmt.Errorf("E1 n=%d p=%d: %w", n, p, err)
				}
				sumRounds += ledger.Rounds()
				sumMsgs += ledger.Messages()
				sumCliques += float64(len(res.Cliques.Cliques()))
				sumOuter += float64(res.OuterIterations)
			}
			rep := int64(cfg.Repeats)
			s.Points = append(s.Points, Point{
				X:        float64(n),
				Rounds:   sumRounds / rep,
				Messages: sumMsgs / rep,
				Meta: map[string]float64{
					"cliques": sumCliques / float64(rep),
					"outer":   sumOuter / float64(rep),
				},
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// E2FastK4 compares the Theorem 1.2 fast-K4 path against the general
// pipeline at p=4; the paper predicts exponents 2/3 vs 3/4.
func E2FastK4(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	fast := Series{Name: "E2: Theorem 1.2 fast-K4 rounds vs n", XLabel: "n", Expected: 0.5}
	gen := Series{Name: "E2: general pipeline (p=4) rounds vs n", XLabel: "n", Expected: 0.5}
	for _, n := range cfg.Sizes {
		for _, mode := range []struct {
			series *Series
			fastK4 bool
		}{{&fast, true}, {&gen, false}} {
			var sumRounds, sumMsgs int64
			var sumCliques float64
			for r := 0; r < cfg.Repeats; r++ {
				seed := cfg.Seed + int64(r)*9973
				g, thr := communityGraph(n, cfg.Density, seed)
				var ledger congest.Ledger
				res, err := core.ListCliques(g, core.Params{
					P: 4, FastK4: mode.fastK4, Seed: seed, FinalExponent: cfg.FinalExponent,
					ClusterThreshold: thr, Workers: cfg.Workers,
				}, congest.UnitCosts(), &ledger)
				if err != nil {
					return nil, fmt.Errorf("E2 n=%d fast=%v: %w", n, mode.fastK4, err)
				}
				sumRounds += ledger.Rounds()
				sumMsgs += ledger.Messages()
				sumCliques += float64(len(res.Cliques.Cliques()))
			}
			rep := int64(cfg.Repeats)
			mode.series.Points = append(mode.series.Points, Point{
				X:        float64(n),
				Rounds:   sumRounds / rep,
				Messages: sumMsgs / rep,
				Meta:     map[string]float64{"cliques": sumCliques / float64(rep)},
			})
		}
	}
	return []Series{fast, gen}, nil
}

// E3CongestedClique sweeps m at fixed n for each p; Theorem 1.3 predicts
// rounds ≈ max(1, m/n^{1+2/p}) — flat below the crossover, linear above.
func E3CongestedClique(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	ps := cfg.Ps
	if len(ps) == 0 || ps[0] > 3 {
		ps = append([]int{3}, ps...)
	}
	var out []Series
	for _, p := range ps {
		crossover := math.Pow(float64(cfg.CCN), 1+2.0/float64(p))
		s := Series{
			Name:   fmt.Sprintf("E3: Theorem 1.3 rounds vs m (CONGESTED CLIQUE, n=%d, p=%d, crossover m≈%.0f)", cfg.CCN, p, crossover),
			XLabel: "m",
		}
		for _, m := range cfg.EdgeCounts {
			maxM := cfg.CCN * (cfg.CCN - 1) / 2
			if m > maxM {
				continue
			}
			// Guard: exact listing must enumerate every clique; skip
			// points whose expected output exceeds the simulation budget
			// (the skip is reported, not silent — the m value is absent
			// from the table and noted in DESIGN.md §4).
			if expectedCliques(cfg.CCN, m, p) > 5e6 {
				continue
			}
			g := graph.GNM(cfg.CCN, m, rand.New(rand.NewSource(cfg.Seed+int64(m))))
			var ledger congest.Ledger
			res, err := sparselist.CongestedCliqueOnGraph(g, p, cfg.Seed, congest.UnitCosts(), &ledger)
			if err != nil {
				return nil, fmt.Errorf("E3 m=%d p=%d: %w", m, p, err)
			}
			s.Points = append(s.Points, Point{
				X:        float64(m),
				Rounds:   ledger.Rounds(),
				Messages: ledger.Messages(),
				Meta: map[string]float64{
					"cliques":   float64(len(res.Cliques.Cliques())),
					"predicted": math.Max(1, float64(m)/crossover),
				},
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// expectedCliques estimates E[#Kp] of G(n,m): C(n,p)·q^{C(p,2)} with
// q = m / C(n,2).
func expectedCliques(n, m, p int) float64 {
	q := float64(m) / (float64(n) * float64(n-1) / 2)
	binom := 1.0
	for i := 0; i < p; i++ {
		binom = binom * float64(n-i) / float64(i+1)
	}
	return binom * math.Pow(q, float64(p*(p-1)/2))
}

// E4Comparison pits this paper's K4/K5 against the Eden-style baseline and
// the trivial broadcast at matched n — the §1 comparison table. Each point
// is averaged over cfg.Repeats seeds.
func E4Comparison(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	ours4 := Series{Name: "E4: this paper K4 (fast, Thm 1.2)", XLabel: "n", Expected: 0.5}
	ours5 := Series{Name: "E4: this paper K5 (Thm 1.1)", XLabel: "n", Expected: 0.6}
	eden := Series{Name: "E4: Eden-style K4 (DISC 19, prev. SOTA)", XLabel: "n", Expected: 1}
	bcast := Series{Name: "E4: trivial broadcast K4 (Remark 2.6)", XLabel: "n", Expected: 1}
	type acc struct {
		rounds, msgs int64
		cliques      float64
	}
	for _, n := range cfg.Sizes {
		var a4, a5, ae, ab acc
		for r := 0; r < cfg.Repeats; r++ {
			seed := cfg.Seed + int64(r)*9973
			g, thr := communityGraph(n, cfg.Density, seed)
			var l1 congest.Ledger
			r1, err := core.ListCliques(g, core.Params{
				P: 4, FastK4: true, Seed: seed, FinalExponent: cfg.FinalExponent,
				ClusterThreshold: thr, Workers: cfg.Workers,
			}, congest.UnitCosts(), &l1)
			if err != nil {
				return nil, fmt.Errorf("E4 ours4 n=%d: %w", n, err)
			}
			a4.rounds += l1.Rounds()
			a4.msgs += l1.Messages()
			a4.cliques += float64(len(r1.Cliques.Cliques()))
			var l5 congest.Ledger
			r5, err := core.ListCliques(g, core.Params{
				P: 5, Seed: seed, FinalExponent: cfg.FinalExponent,
				ClusterThreshold: thr, Workers: cfg.Workers,
			}, congest.UnitCosts(), &l5)
			if err != nil {
				return nil, fmt.Errorf("E4 ours5 n=%d: %w", n, err)
			}
			a5.rounds += l5.Rounds()
			a5.msgs += l5.Messages()
			a5.cliques += float64(len(r5.Cliques.Cliques()))
			var l2 congest.Ledger
			r2, err := baseline.EdenK4List(g, baseline.EdenK4Params{Seed: seed, ClusterThreshold: thr},
				congest.UnitCosts(), &l2)
			if err != nil {
				return nil, fmt.Errorf("E4 eden n=%d: %w", n, err)
			}
			ae.rounds += l2.Rounds()
			ae.msgs += l2.Messages()
			ae.cliques += float64(len(r2.Cliques()))
			var l3 congest.Ledger
			r3 := graph.NewCliqueBag(4)
			if err := baseline.BroadcastList(g, congest.UnitCosts(), &l3, r3); err != nil {
				return nil, fmt.Errorf("E4 bcast n=%d: %w", n, err)
			}
			ab.rounds += l3.Rounds()
			ab.msgs += l3.Messages()
			ab.cliques += float64(len(r3.Cliques()))
		}
		rep := int64(cfg.Repeats)
		for _, pair := range []struct {
			s *Series
			a acc
		}{{&ours4, a4}, {&ours5, a5}, {&eden, ae}, {&bcast, ab}} {
			pair.s.Points = append(pair.s.Points, Point{
				X: float64(n), Rounds: pair.a.rounds / rep, Messages: pair.a.msgs / rep,
				Meta: map[string]float64{"cliques": pair.a.cliques / float64(rep)},
			})
		}
	}
	return []Series{ours4, ours5, eden, bcast}, nil
}

// E5LowerBoundGap reports measured rounds ÷ n^{(p-2)/p}, the proximity to
// the Fischer et al. lower bound.
func E5LowerBoundGap(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	e1, err := E1Theorem11(cfg)
	if err != nil {
		return nil, err
	}
	var out []Series
	for i, p := range cfg.Ps {
		s := Series{
			Name:   fmt.Sprintf("E5: rounds / n^{(p-2)/p} vs n (p=%d; LB Ω̃(n^{%.3f}))", p, float64(p-2)/float64(p)),
			XLabel: "n",
		}
		for _, pt := range e1[i].Points {
			lb := math.Pow(pt.X, float64(p-2)/float64(p))
			s.Points = append(s.Points, Point{
				X: pt.X, Rounds: pt.Rounds, Messages: pt.Messages,
				Meta: map[string]float64{"gap": float64(pt.Rounds) / lb},
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// E6IterativeDecay traces the inner structure of the pipeline on a
// power-law graph (dense core, sparse fringe — the family that makes the
// iterations non-trivial): |Er| per ARB-LIST pass (paper: ≤ |Er|/4 + bad)
// and the arboricity ladder of the outer loop (paper: halving).
func E6IterativeDecay(n int, density float64, seed int64, workers int) ([]Series, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.ChungLu(graph.PowerLawWeights(n, 2.2, 12), rng)
	const thr = 6
	var ledger congest.Ledger
	lres, err := arblist.List(g,
		arblist.Params{P: 4, Seed: seed, ClusterThreshold: thr, Workers: workers}, congest.UnitCosts(), &ledger)
	if err != nil {
		return nil, fmt.Errorf("E6 LIST: %w", err)
	}
	erDecay := Series{Name: fmt.Sprintf("E6a: |Er| per ARB-LIST pass (power-law n=%d, paper: ≤ |Er|/4 + bad)", n), XLabel: "pass"}
	for i, sz := range lres.ErSizes {
		erDecay.Points = append(erDecay.Points, Point{X: float64(i), Rounds: int64(sz)})
	}
	var ledger2 congest.Ledger
	cres, err := core.ListCliques(g, core.Params{P: 4, Seed: seed, FinalExponent: 0.1, ClusterThreshold: thr, Workers: workers}, congest.UnitCosts(), &ledger2)
	if err != nil {
		return nil, fmt.Errorf("E6 core: %w", err)
	}
	ladder := Series{Name: fmt.Sprintf("E6b: arboricity bound per outer pass (power-law n=%d, paper: halving)", n), XLabel: "pass"}
	for i, a := range cres.ArboricityLadder {
		ladder.Points = append(ladder.Points, Point{X: float64(i), Rounds: int64(a)})
	}
	_ = density
	return []Series{erDecay, ladder}, nil
}

// celebrityGraph builds the E7a workload: one dense bipartite pocket with
// four "celebrity" members (two per side, so celebrity–celebrity edges
// exist) to which a long chain of light satellites attaches. Celebrities
// accumulate hundreds of C-light neighbors — exactly the bad-node
// situation §2.4.1 defends against.
func celebrityGraph(n, pocket int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	sub := graph.RandomBipartite(pocket, 0.7, rng)
	edges = append(edges, sub.Edges()...)
	celebs := []graph.V{0, 1, graph.V(pocket / 2), graph.V(pocket/2 + 1)}
	for v := pocket; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), V: celebs[rng.Intn(len(celebs))]})
		edges = append(edges, graph.Edge{U: graph.V(v), V: celebs[rng.Intn(len(celebs))]})
		edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(4 + rng.Intn(pocket-4))})
		if v > pocket {
			edges = append(edges, graph.Edge{U: graph.V(v), V: graph.V(v - 1)})
		}
	}
	return graph.MustNew(n, edges)
}

// E7Ablations measures the design choices §1.2 calls out:
// (a) bad-edge delaying on/off on the celebrity workload → light-learning
// rounds and max per-node learned edges,
// (b) sparsity-aware vs naive in-cluster listing across sizes,
// (c) heavy-threshold sweep.
func E7Ablations(n int, density float64, seed int64, workers int) ([]Series, error) {
	// (a) bad-edge delaying on the celebrity workload.
	gc := celebrityGraph(maxI(n, 320), 80, seed)
	elc := graph.NewEdgeList(gc.Edges())
	aOn := Series{Name: fmt.Sprintf("E7a: bad-edge delaying ON (celebrity workload, n=%d)", gc.N()), XLabel: "n"}
	aOff := Series{Name: "E7a: bad-edge delaying OFF (threshold ∞)", XLabel: "n"}
	for _, mode := range []struct {
		s   *Series
		thr int
	}{{&aOn, 0}, {&aOff, 1 << 30}} {
		var ledger congest.Ledger
		res, err := arblist.ArbList(gc, nil, nil, elc,
			arblist.Params{P: 4, Seed: seed, BadThreshold: mode.thr, ClusterThreshold: 10, Workers: workers},
			congest.UnitCosts(), &ledger)
		if err != nil {
			return nil, fmt.Errorf("E7a: %w", err)
		}
		mode.s.Points = append(mode.s.Points, Point{
			X: float64(gc.N()), Rounds: ledger.Rounds(), Messages: ledger.Messages(),
			Meta: map[string]float64{
				"maxLearned":  float64(res.Stats.MaxLearned),
				"badEdges":    float64(res.Stats.BadEdges),
				"badNodes":    float64(res.Stats.BadNodes),
				"lightLearnR": float64(ledger.Phase("arb-light-learn").Rounds),
			},
		})
	}

	// (b) sparsity-aware vs naive in-cluster listing across sizes: the
	// sparsity-aware delivery pays p²/t² of the edge set per node, the
	// naive collector pays the whole edge set at one node — the crossover
	// sits where t² = k^{2/p} overtakes p².
	bOurs := Series{Name: "E7b: sparsity-aware in-cluster listing (ours)", XLabel: "n"}
	bNaive := Series{Name: "E7b: naive collector in-cluster listing (Eden-style)", XLabel: "n"}
	for _, nn := range []int{240, 768, 1536} {
		g, thr := communityGraph(nn, 0.7, seed)
		el := graph.NewEdgeList(g.Edges())
		var ledger congest.Ledger
		if _, err := arblist.ArbList(g, nil, nil, el,
			arblist.Params{P: 4, Seed: seed, ClusterThreshold: thr, Workers: workers},
			congest.UnitCosts(), &ledger); err != nil {
			return nil, err
		}
		pc := ledger.Phase("cluster-sparse-listing")
		bOurs.Points = append(bOurs.Points, Point{X: float64(nn), Rounds: pc.Rounds, Messages: pc.Messages})
		var ledger2 congest.Ledger
		if _, err := baseline.EdenK4List(g, baseline.EdenK4Params{
			ClusterThreshold: thr, Seed: seed}, congest.UnitCosts(), &ledger2); err != nil {
			return nil, err
		}
		pn := ledger2.Phase("eden-naive-listing")
		bNaive.Points = append(bNaive.Points, Point{X: float64(nn), Rounds: pn.Rounds, Messages: pn.Messages})
	}

	// (c) heavy-threshold sweep on the community workload.
	g7, thr7 := communityGraph(maxI(n, 240), 0.7, seed)
	el7 := graph.NewEdgeList(g7.Edges())
	c := Series{Name: fmt.Sprintf("E7c: rounds vs heavy threshold (community n=%d)", g7.N()), XLabel: "heavyThr"}
	for _, thr := range []int{2, 4, 8, 16, 32} {
		var ledger congest.Ledger
		res, err := arblist.ArbList(g7, nil, nil, el7,
			arblist.Params{P: 4, Seed: seed, HeavyThreshold: thr, ClusterThreshold: thr7, Workers: workers},
			congest.UnitCosts(), &ledger)
		if err != nil {
			return nil, fmt.Errorf("E7c thr=%d: %w", thr, err)
		}
		c.Points = append(c.Points, Point{
			X: float64(thr), Rounds: ledger.Rounds(), Messages: ledger.Messages(),
			Meta: map[string]float64{
				"heavy": float64(res.Stats.HeavyNodes),
				"light": float64(res.Stats.LightNodes),
			},
		})
	}
	_ = density
	return []Series{aOn, aOff, bOurs, bNaive, c}, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E8CountingVsListing reproduces the §5 discussion: triangle counting via
// the algebraic route (O(n^{1/3}) rounds) against the sparsity-aware
// lister (Θ̃(1 + m/n^{5/3}) rounds) in the CONGESTED CLIQUE, sweeping
// density at fixed n. The lister wins while the graph is sparse; the
// counter wins once m crosses ≈ n^{4/3+1/3}.
func E8CountingVsListing(n int, seed int64) ([]Series, error) {
	counting := Series{Name: fmt.Sprintf("E8: algebraic triangle counting (CC, n=%d)", n), XLabel: "m"}
	listing := Series{Name: fmt.Sprintf("E8: sparsity-aware triangle listing (CC, n=%d)", n), XLabel: "m"}
	maxM := n * (n - 1) / 2
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.8} {
		m := int(frac * float64(maxM))
		g := graph.GNM(n, m, rand.New(rand.NewSource(seed+int64(m))))
		var lc congest.Ledger
		count, err := algebraic.TriangleCountCC(g, congest.UnitCosts(), &lc)
		if err != nil {
			return nil, fmt.Errorf("E8 count m=%d: %w", m, err)
		}
		counting.Points = append(counting.Points, Point{
			X: float64(m), Rounds: lc.Rounds(), Messages: lc.Messages(),
			Meta: map[string]float64{"triangles": float64(count)},
		})
		var ll congest.Ledger
		res, err := sparselist.CongestedCliqueOnGraph(g, 3, seed, congest.UnitCosts(), &ll)
		if err != nil {
			return nil, fmt.Errorf("E8 list m=%d: %w", m, err)
		}
		if listed := len(res.Cliques.Cliques()); int64(listed) != count {
			return nil, fmt.Errorf("E8 m=%d: lister found %d triangles, counter %d", m, listed, count)
		}
		listing.Points = append(listing.Points, Point{
			X: float64(m), Rounds: ll.Rounds(), Messages: ll.Messages(),
			Meta: map[string]float64{"triangles": float64(count)},
		})
	}
	return []Series{counting, listing}, nil
}
