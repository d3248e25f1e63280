package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// TestKernelParallelByteIdentical: the listing must be byte-identical for
// every worker count — the acceptance invariant behind all goldens.
func TestKernelParallelByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(90)
		g := ErdosRenyi(n, 0.1+0.3*rng.Float64(), rng)
		for p := 2; p <= 5; p++ {
			want := g.ListCliquesWorkers(p, 1)
			for _, workers := range []int{2, 3, 8} {
				got := g.ListCliquesWorkers(p, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d n=%d p=%d workers=%d: output differs from sequential",
						trial, n, p, workers)
				}
			}
		}
	}
}

// TestKernelCountMatchesList: the counting mode (which never materializes
// or sorts) must agree with the listing on every graph and worker count.
func TestKernelCountMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		g := ErdosRenyi(40+rng.Intn(60), 0.35, rng)
		for p := 2; p <= 5; p++ {
			want := int64(len(g.ListCliques(p)))
			for _, workers := range []int{1, 4} {
				if got := g.CountCliquesWorkers(p, workers); got != want {
					t.Fatalf("trial %d p=%d workers=%d: count %d, list %d", trial, p, workers, got, want)
				}
			}
		}
	}
}

// TestKernelSteadyStateZeroAlloc is the alloc-regression canary the CI
// bench-smoke job pins: once the kernel is built (one warm-up call), the
// single-worker counting enumeration must not allocate at all.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	g := ErdosRenyi(128, 0.4, rand.New(rand.NewSource(5)))
	if g.CountCliquesWorkers(4, 1) == 0 {
		t.Fatal("degenerate benchmark graph: no K4s")
	}
	allocs := testing.AllocsPerRun(5, func() {
		g.CountCliquesWorkers(4, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state kernel count allocated %.1f objects/op, want 0", allocs)
	}
}

// TestLocalListerAllocsFlat is an alloc-regression canary: once the
// build scratch is warm, indexing an edge list and counting its K4s
// allocates the same number of objects (the kernel's own arrays and one
// arena) for a graph and for four disjoint copies of it, on the dense-ID
// path and on the sparse one, and about as many bytes as the kernel keeps.
func TestLocalListerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	g := ErdosRenyi(60, 0.2, rand.New(rand.NewSource(7)))
	small := g.Edges()
	var large []Edge
	for c := 0; c < 4; c++ {
		for _, e := range small {
			large = append(large, Edge{e.U + V(c*g.N()), e.V + V(c*g.N())})
		}
	}
	spread := func(edges []Edge) []Edge {
		out := make([]Edge, len(edges))
		for i, e := range edges {
			out[i] = Edge{e.U * 4099, e.V * 4099}
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		small, large []Edge
	}{
		{"dense", small, large},
		{"sparse", spread(small), spread(large)},
	} {
		build := func(edges []Edge) func() {
			return func() {
				if NewLocalLister(edges).kern.count(4, 1) == 0 {
					t.Fatal("no K4s to count")
				}
			}
		}
		build(tc.large)() // warm the scratch at the larger size
		a := testing.AllocsPerRun(50, build(tc.small))
		b := testing.AllocsPerRun(50, build(tc.large))
		if a != b {
			t.Fatalf("%s: %.0f allocs for %d edges but %.0f for %d", tc.name, a, len(tc.small), b, len(tc.large))
		}
		// The bytes, too, are the kernel's and little else: the packed
		// keys, remap and adjacency CSR, each as large as the kernel's
		// arrays or larger, must come from the warm scratch.
		k := NewLocalLister(tc.large).kern
		kept := 4*(len(k.orig)+len(k.off)+len(k.heads)) + 8*len(k.rows)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build(tc.large)()
		}
		runtime.ReadMemStats(&after)
		perBuild := int(after.TotalAlloc-before.TotalAlloc) / runs
		if perBuild > 2*kept+4096 {
			t.Fatalf("%s: a warm build allocates %d B, the kernel keeps %d B", tc.name, perBuild, kept)
		}
		t.Logf("%s: %.0f allocs and %d B per build+count (kernel keeps %d B)", tc.name, a, perBuild, kept)
	}
}

// TestVisitCliquesUntil: early termination stops the enumeration and
// reports it; completion reports true.
func TestVisitCliquesUntil(t *testing.T) {
	g := Complete(8)
	seen := 0
	if done := g.VisitCliquesUntil(3, func(Clique) bool {
		seen++
		return seen < 10
	}); done {
		t.Error("aborted enumeration reported completion")
	}
	if seen != 10 {
		t.Errorf("aborted after %d cliques, want 10", seen)
	}
	total := 0
	if done := g.VisitCliquesUntil(3, func(Clique) bool { total++; return true }); !done {
		t.Error("complete enumeration reported abort")
	}
	if total != 56 { // C(8,3)
		t.Errorf("listed %d triangles of K8, want 56", total)
	}
}

// TestLocalListerSparseIDs drives the binary-search remap path (vertex
// IDs far apart) and the radix-sort fallback (IDs beyond the counting
// bound), plus negative-endpoint filtering.
func TestLocalListerSparseIDs(t *testing.T) {
	const big = 1 << 20 // beyond the bag's radix-sort bound
	edges := []Edge{
		{0, big}, {0, 2 * big}, {big, 2 * big}, // triangle with huge spread
		{0, 7}, {7, big}, // extra edges
		{-3, 4}, {4, -1}, // dropped: negative endpoints
	}
	ll := NewLocalLister(edges)
	tri := localCliques(ll, 3)
	if len(tri) != 2 {
		t.Fatalf("listed %d triangles, want 2 ({0,7,big} and {0,big,2big}): %v", len(tri), tri)
	}
	want := []Clique{{0, 7, big}, {0, big, 2 * big}}
	if !reflect.DeepEqual(tri, want) {
		t.Fatalf("triangles = %v, want %v", tri, want)
	}
	// p = 2 lists the known edges: the negative-endpoint ones are dropped
	// and the huge-spread ones kept.
	wantEdges := []Clique{{0, 7}, {0, big}, {0, 2 * big}, {7, big}, {big, 2 * big}}
	if got := localCliques(ll, 2); !reflect.DeepEqual(got, wantEdges) {
		t.Fatalf("edges = %v, want %v", got, wantEdges)
	}
}

// TestLocalListerAddCliques: the bag AddCliques fills holds exactly what
// the lister's kernel visits, in its order, and sorts to the graph's
// ListCliques.
func TestLocalListerAddCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := ErdosRenyi(50, 0.3, rng)
	ll := NewLocalLister(g.Edges())
	for p := 3; p <= 4; p++ {
		bag := NewCliqueBag(p)
		ll.AddCliques(bag)
		var visited []Clique
		ll.kern.visitSeq(p, func(c Clique) bool {
			visited = append(visited, slices.Clone(c))
			return true
		})
		if got := slices.Collect(bag.All()); !sameCliques(got, visited) {
			t.Fatalf("p=%d: AddCliques diverges from the kernel's visit (%d vs %d)", p, len(got), len(visited))
		}
		if got, want := bag.Cliques(), g.ListCliques(p); !sameCliques(got, want) {
			t.Fatalf("p=%d: sorted bag diverges from ListCliques (%d vs %d)", p, len(got), len(want))
		}
	}
}

// TestKernelDegenerateInputs: tiny and empty shapes must not panic and
// must agree with first principles.
func TestKernelDegenerateInputs(t *testing.T) {
	empty := MustNew(0, nil)
	if got := empty.ListCliques(3); got != nil {
		t.Errorf("empty graph listed %v", got)
	}
	single := MustNew(1, nil)
	if got := single.CountCliques(2); got != 0 {
		t.Errorf("K1 has %d edges?", got)
	}
	if got := single.ListCliques(1); len(got) != 1 {
		t.Errorf("K1 vertices = %v", got)
	}
	if got := localCliques(NewLocalLister(nil), 3); len(got) != 0 {
		t.Error("empty lister listed cliques")
	}
	// p = 2 lists exactly the edge set.
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	if got := g.ListCliques(2); len(got) != 3 {
		t.Errorf("p=2 listed %v, want the 3 edges", got)
	}
}

// TestKernelHugePIsFree: a clique size past the degeneracy bound is an
// empty listing answered before any O(p) arena is borrowed, for Graph and
// LocalLister alike; the bound itself is tight on a complete graph.
func TestKernelHugePIsFree(t *testing.T) {
	g := ErdosRenyi(40, 0.3, rand.New(rand.NewSource(5)))
	ll := NewLocalLister(g.Edges())
	for _, p := range []int{g.Degeneracy().Degeneracy + 2, 1 << 30} {
		bag := NewCliqueBag(p)
		allocs := testing.AllocsPerRun(5, func() {
			if n := g.CountCliques(p); n != 0 {
				t.Fatalf("CountCliques(%d) = %d", p, n)
			}
			if cs := g.ListCliques(p); cs != nil {
				t.Fatalf("ListCliques(%d) = %d cliques", p, len(cs))
			}
			if !g.VisitCliquesUntil(p, func(Clique) bool { t.Fatalf("VisitCliquesUntil(%d) yielded", p); return false }) {
				t.Fatalf("VisitCliquesUntil(%d) did not complete", p)
			}
			if ll.AddCliques(bag); bag.rows != 0 {
				t.Fatalf("LocalLister.AddCliques listed %d %d-cliques", bag.rows, p)
			}
		})
		if allocs > 0 {
			t.Fatalf("p=%d: %.0f allocations for an empty listing", p, allocs)
		}
	}
	k6 := Complete(6) // degeneracy 5: one K6, no K7
	if n, m := k6.CountCliques(6), k6.CountCliques(7); n != 1 || m != 0 {
		t.Fatalf("K6: %d K6s and %d K7s, want 1 and 0", n, m)
	}
}
