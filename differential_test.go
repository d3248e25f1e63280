package kplist_test

// The differential test harness: every workload generator family runs
// through every listing algorithm and is compared against the sequential
// baseline (GroundTruth). Randomized sizes and seeds; -short trims the
// trial count, not the family × algorithm coverage.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kplist"
	"kplist/internal/graph"
	"kplist/internal/workload"
)

// differentialAlgos is every public listing engine with its p-domain.
var differentialAlgos = []struct {
	algo kplist.Algorithm
	minP int
	maxP int
}{
	{kplist.AlgoCongestedClique, 3, 5},
	{kplist.AlgoBroadcast, 3, 5},
	{kplist.AlgoCONGEST, 4, 5},
	{kplist.AlgoFastK4, 4, 4},
}

func TestDifferentialFamiliesTimesAlgorithms(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(20260728))
	for _, family := range workload.Families() {
		family := family
		t.Run(family, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				n := 40 + rng.Intn(60)
				seed := rng.Int63n(1 << 30)
				spec := workload.DefaultSpec(family, n, seed)
				if family == workload.FamilyPlantedClique {
					// Vary the planted shape too: k in 4..6, as many as fit.
					spec.CliqueSize = 4 + rng.Intn(3)
					spec.CliqueCount = 1 + rng.Intn(2)
				}
				inst, err := workload.Generate(spec)
				if err != nil {
					t.Fatalf("generate %+v: %v", spec, err)
				}
				if err := inst.Check(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				runDifferential(t, inst)
			}
		})
	}
}

func runDifferential(t *testing.T, inst *workload.Instance) {
	t.Helper()
	g := inst.G
	for _, a := range differentialAlgos {
		for p := a.minP; p <= a.maxP; p++ {
			res, err := runAlgo(g, a.algo, p, inst.Spec.Seed)
			if err != nil {
				t.Errorf("%s n=%d seed=%d %s p=%d: %v",
					inst.Spec.Family, g.N(), inst.Spec.Seed, a.algo, p, err)
				continue
			}
			// Exact agreement with the sequential baseline.
			if err := kplist.Verify(g, p, res.Cliques); err != nil {
				t.Errorf("%s n=%d seed=%d %s p=%d: differential mismatch: %v",
					inst.Spec.Family, g.N(), inst.Spec.Seed, a.algo, p, err)
			}
			// Recall: planted cliques of exactly size p must all be listed.
			listed := map[string]bool{}
			for _, c := range res.Cliques {
				listed[fmt.Sprint(c)] = true
			}
			for _, c := range inst.Props.Planted {
				if len(c) == p && !listed[fmt.Sprint(kplist.Clique(c))] {
					t.Errorf("%s %s p=%d: planted clique %v not listed",
						inst.Spec.Family, a.algo, p, c)
				}
			}
			// Structural guarantees transfer to outputs.
			if inst.Props.TriangleFree && len(res.Cliques) != 0 {
				t.Errorf("%s %s p=%d: triangle-free family listed %d cliques",
					inst.Spec.Family, a.algo, p, len(res.Cliques))
			}
			if b := inst.Props.DegeneracyBound; b > 0 && p > b+1 && len(res.Cliques) != 0 {
				t.Errorf("%s %s p=%d: degeneracy ≤ %d forbids Kp, listed %d",
					inst.Spec.Family, a.algo, p, b, len(res.Cliques))
			}
		}
	}
}

func runAlgo(g *kplist.Graph, algo kplist.Algorithm, p int, seed int64) (*kplist.Result, error) {
	opt := kplist.Options{Seed: seed}
	switch algo {
	case kplist.AlgoCONGEST:
		return kplist.ListCONGEST(g, p, opt)
	case kplist.AlgoFastK4:
		opt.FastK4 = true
		return kplist.ListCONGEST(g, p, opt)
	case kplist.AlgoCongestedClique:
		return kplist.ListCongestedClique(g, p, opt)
	case kplist.AlgoBroadcast:
		return kplist.ListBroadcast(g, p, opt)
	}
	return nil, fmt.Errorf("unknown algo %q", algo)
}

// TestDifferentialPlantedAlwaysFound plants cliques across several shapes
// and asserts perfect recall on every engine that lists that p.
func TestDifferentialPlantedAlwaysFound(t *testing.T) {
	shapes := []struct{ n, k, count int }{
		{60, 4, 3},
		{80, 5, 2},
		{100, 6, 1},
	}
	if testing.Short() {
		shapes = shapes[:1]
	}
	for _, sh := range shapes {
		spec := workload.DefaultSpec(workload.FamilyPlantedClique, sh.n, int64(sh.n))
		spec.CliqueSize = sh.k
		spec.CliqueCount = sh.count
		spec.Background = 0.08
		inst, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range differentialAlgos {
			if sh.k < a.minP || sh.k > a.maxP {
				continue
			}
			res, err := runAlgo(inst.G, a.algo, sh.k, spec.Seed)
			if err != nil {
				t.Fatalf("%s k=%d: %v", a.algo, sh.k, err)
			}
			listed := map[string]bool{}
			for _, c := range res.Cliques {
				listed[fmt.Sprint(c)] = true
			}
			for _, c := range inst.Props.Planted {
				if !listed[fmt.Sprint(kplist.Clique(c))] {
					t.Errorf("%s n=%d k=%d: planted %v missing", a.algo, sh.n, sh.k, c)
				}
			}
		}
	}
}

// TestDifferentialViaSession reruns one differential sweep through the
// Session batch API with Verify on: the serving path must be exactly as
// correct as the direct calls, and the batch must coalesce duplicates.
func TestDifferentialViaSession(t *testing.T) {
	inst := workload.MustGenerate(workload.DefaultSpec(workload.FamilyStochasticBlock, 72, 5))
	s := kplist.NewSession(inst.G, kplist.SessionConfig{Verify: true, MaxConcurrent: 4})
	defer s.Close()
	var qs []kplist.Query
	for _, a := range differentialAlgos {
		for p := a.minP; p <= a.maxP; p++ {
			qs = append(qs, kplist.Query{P: p, Algo: a.algo}, kplist.Query{P: p, Algo: a.algo})
		}
	}
	for _, br := range s.QueryBatch(qs) {
		if br.Err != nil {
			t.Fatalf("%+v: %v", br.Query, br.Err)
		}
	}
	st := s.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Hits+st.Misses != int64(len(qs)) {
		t.Errorf("batch should both execute and coalesce: %+v", st)
	}
}

// referenceListCliques is the pre-kernel sequential enumerator (the
// per-recursion-allocating laterAdj walk the kernel replaced), kept as an
// independent brute-force reference: every workload family must get a
// byte-for-byte identical listing from the kernel at every worker count.
func referenceListCliques(g *kplist.Graph, p int) []kplist.Clique {
	if p <= 0 {
		return nil
	}
	var out []kplist.Clique
	if p == 1 {
		for v := 0; v < g.N(); v++ {
			out = append(out, kplist.Clique{kplist.V(v)})
		}
		return out
	}
	rank := g.Degeneracy().Rank
	laterAdj := make([][]kplist.V, g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(kplist.V(v)) {
			if rank[v] < rank[w] {
				laterAdj[v] = append(laterAdj[v], w)
			}
		}
	}
	prefix := make(kplist.Clique, 0, p)
	var rec func(cands []kplist.V, need int)
	rec = func(cands []kplist.V, need int) {
		for i, v := range cands {
			if len(cands)-i < need {
				return
			}
			prefix = append(prefix, v)
			if need == 1 {
				cp := make(kplist.Clique, p)
				copy(cp, prefix)
				sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
				out = append(out, cp)
			} else {
				rec(graph.IntersectSorted(cands[i+1:], g.Neighbors(v)), need-1)
			}
			prefix = prefix[:len(prefix)-1]
		}
	}
	for v := 0; v < g.N(); v++ {
		if len(laterAdj[v]) < p-1 {
			continue
		}
		prefix = append(prefix, kplist.V(v))
		rec(laterAdj[v], p-1)
		prefix = prefix[:0]
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// cliqueBytes flattens a listing into its canonical key bytes, making
// "byte-for-byte identical" a single comparison.
func cliqueBytes(cs []kplist.Clique) string {
	var buf []byte
	for _, c := range cs {
		buf = c.AppendKey(buf)
	}
	return string(buf)
}

// TestDifferentialKernelVsReference compares the kernel (sequential and
// 8-way parallel) byte-for-byte against the reference enumerator on every
// workload family × p ∈ {3, 4, 5}.
func TestDifferentialKernelVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	trials := 2
	if testing.Short() {
		trials = 1
	}
	for _, family := range workload.Families() {
		family := family
		t.Run(family, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				n := 40 + rng.Intn(70)
				seed := rng.Int63n(1 << 30)
				inst, err := workload.Generate(workload.DefaultSpec(family, n, seed))
				if err != nil {
					t.Fatal(err)
				}
				for p := 3; p <= 5; p++ {
					want := cliqueBytes(referenceListCliques(inst.G, p))
					for _, workers := range []int{1, 8} {
						got := cliqueBytes(inst.G.ListCliquesWorkers(p, workers))
						if got != want {
							t.Fatalf("%s n=%d seed=%d p=%d workers=%d: kernel listing is not byte-identical to the reference enumerator",
								family, n, seed, p, workers)
						}
					}
					if got := kplist.GroundTruthCount(inst.G, p); got != int64(len(want)/(4*p)) {
						t.Fatalf("%s n=%d seed=%d p=%d: count %d, want %d",
							family, n, seed, p, got, len(want)/(4*p))
					}
				}
			}
		})
	}
}

// TestDifferentialOuterLoop covers what the default runs above never
// reach: at these sizes every CONGEST and FastK4 run starts below the
// final phase's cutoff, so ARB-LIST and the cluster listing never run. A
// low FinalExponent forces at least one outer arboricity-halving
// iteration, and the listing must still match the reference enumerator
// byte for byte.
func TestDifferentialOuterLoop(t *testing.T) {
	const finalExponent = 0.2
	trials := 2
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(20260730))
	forced := 0
	for _, family := range workload.Families() {
		for trial := 0; trial < trials; trial++ {
			n := 80 + rng.Intn(60)
			seed := rng.Int63n(1 << 30)
			inst, err := workload.Generate(workload.DefaultSpec(family, n, seed))
			if err != nil {
				t.Fatal(err)
			}
			g := inst.G
			if g.Degeneracy().Degeneracy <= int(math.Ceil(math.Pow(float64(n), finalExponent))) {
				continue // already below the cutoff: no exponent forces an iteration
			}
			forced++
			for _, run := range []struct {
				p    int
				fast bool
			}{{4, false}, {5, false}, {4, true}} {
				opt := kplist.Options{Seed: seed, FinalExponent: finalExponent, FastK4: run.fast, Paranoid: true}
				res, err := kplist.ListCONGEST(g, run.p, opt)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d p=%d fast=%v: %v", family, n, seed, run.p, run.fast, err)
				}
				if res.OuterIterations < 1 {
					t.Errorf("%s n=%d seed=%d p=%d fast=%v: OuterIterations = 0, ladder %v",
						family, n, seed, run.p, run.fast, res.ArboricityLadder)
				}
				if cliqueBytes(res.Cliques) != cliqueBytes(referenceListCliques(g, run.p)) {
					t.Errorf("%s n=%d seed=%d p=%d fast=%v: listing differs from the reference enumerator",
						family, n, seed, run.p, run.fast)
				}
			}
		}
	}
	t.Logf("%d of %d graphs ran the outer loop", forced, len(workload.Families())*trials)
	if want := len(workload.Families()) * trials / 2; forced < want {
		t.Fatalf("only %d graphs were above the cutoff, want at least %d", forced, want)
	}
}
