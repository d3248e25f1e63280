package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Generators for the synthetic workloads used by the experiments. All
// generators take an explicit *rand.Rand so runs are reproducible; none
// touch global state.

// ErdosRenyi samples G(n, prob): each of the n(n-1)/2 edges present
// independently with probability prob. Uses geometric skipping so the cost
// is proportional to the number of edges generated, not n^2.
func ErdosRenyi(n int, prob float64, rng *rand.Rand) *Graph {
	if prob <= 0 || n < 2 {
		return MustNew(maxInt(n, 0), nil)
	}
	if prob >= 1 {
		return Complete(n)
	}
	var edges []Edge
	// Batagelj–Brandes: iterate over pair index k in [0, n(n-1)/2),
	// advancing by geometric skips so the cost is O(m), not O(n^2).
	total := int64(n) * int64(n-1) / 2
	Sprinkle(rng, total, prob, func(k int64) {
		u, v := PairFromIndex(k, n)
		edges = append(edges, Edge{u, v})
	})
	return MustNew(n, edges)
}

// Sprinkle visits each index in [0,total) independently with probability p,
// in ascending order, via geometric skips so the cost is proportional to
// the number of hits — the shared Bernoulli sampler behind every density
// knob (Erdős–Rényi, bipartite, the workload block models).
func Sprinkle(rng *rand.Rand, total int64, p float64, emit func(k int64)) {
	if p <= 0 || total <= 0 {
		return
	}
	if p >= 1 {
		for k := int64(0); k < total; k++ {
			emit(k)
		}
		return
	}
	logq := math.Log1p(-p) // < 0
	k := int64(-1)
	for {
		r := rng.Float64()
		skip := int64(math.Floor(math.Log1p(-r) / logq))
		if skip < 0 {
			skip = 0
		}
		k += 1 + skip
		if k >= total {
			return
		}
		emit(k)
	}
}

// PairFromIndex maps a linear index k in [0, n(n-1)/2) to the k-th pair
// (u,v), u<v, in row-major order.
func PairFromIndex(k int64, n int) (V, V) {
	// Row u contributes n-1-u pairs. Solve for u.
	u := int64(0)
	rem := k
	for {
		row := int64(n) - 1 - u
		if rem < row {
			break
		}
		rem -= row
		u++
	}
	return V(u), V(u + 1 + rem)
}

// GNM samples a uniform graph with exactly m distinct edges (or all edges if
// m exceeds the maximum).
func GNM(n, m int, rng *rand.Rand) *Graph {
	total := int64(n) * int64(n-1) / 2
	if int64(m) >= total {
		return Complete(n)
	}
	seen := make(map[int64]struct{}, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		k := rng.Int63n(total)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		u, v := PairFromIndex(k, n)
		edges = append(edges, Edge{u, v})
	}
	return MustNew(n, edges)
}

// Complete returns K_n.
func Complete(n int) *Graph {
	var edges []Edge
	if n > 1 {
		edges = make([]Edge, 0, n*(n-1)/2)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{V(u), V(v)})
		}
	}
	return MustNew(maxInt(n, 0), edges)
}

// Cycle returns C_n.
func Cycle(n int) *Graph {
	if n < 3 {
		return MustNew(maxInt(n, 0), nil)
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{V(i), V((i + 1) % n)})
	}
	return MustNew(n, edges)
}

// Path returns P_n (n vertices, n-1 edges).
func Path(n int) *Graph {
	edges := make([]Edge, 0, maxInt(n-1, 0))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{V(i), V(i + 1)})
	}
	return MustNew(maxInt(n, 0), edges)
}

// PlantedCliques overlays count vertex-disjoint cliques of size k on top of
// a sparse Erdős–Rényi background with edge probability bgProb. It returns
// the graph and the planted cliques (each sorted ascending). It panics if
// count*k exceeds n; callers control parameters.
func PlantedCliques(n, k, count int, bgProb float64, rng *rand.Rand) (*Graph, [][]V) {
	if count*k > n {
		panic(fmt.Sprintf("graph: cannot plant %d cliques of size %d in %d vertices", count, k, n))
	}
	perm := rng.Perm(n)
	bg := ErdosRenyi(n, bgProb, rng)
	edges := bg.Edges()
	planted := make([][]V, 0, count)
	at := 0
	for c := 0; c < count; c++ {
		members := make([]V, k)
		for i := 0; i < k; i++ {
			members[i] = V(perm[at])
			at++
		}
		sortV(members)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, Edge{members[i], members[j]})
			}
		}
		planted = append(planted, members)
	}
	return MustNew(n, edges), planted
}

// ChungLu samples a graph with expected degree sequence w: edge {u,v}
// appears with probability min(1, w_u w_v / sum(w)).
func ChungLu(weights []float64, rng *rand.Rand) *Graph {
	n := len(weights)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return MustNew(n, nil)
	}
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := weights[u] * weights[v] / sum
			if p > 1 {
				p = 1
			}
			if rng.Float64() < p {
				edges = append(edges, Edge{V(u), V(v)})
			}
		}
	}
	return MustNew(n, edges)
}

// PowerLawWeights returns Chung–Lu weights for a power-law degree
// distribution with the given exponent (>2) and average degree.
func PowerLawWeights(n int, exponent, avgDeg float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -1/(exponent-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}

// RandomRegular samples an approximately d-regular graph via the
// configuration model with rejection of loops and multi-edges. The result
// has maximum degree ≤ d; a handful of vertices may fall short when stubs
// collide, which is acceptable for expander-ish test inputs.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if n*d%2 == 1 {
		d++ // need even stub count
	}
	stubs := make([]V, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, V(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	var edges []Edge
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	return MustNew(n, edges)
}

// RandomBipartite samples a bipartite graph on sides {0..n/2-1} and
// {n/2..n-1} with edge probability prob across the cut. Bipartite graphs
// are triangle-free (hence Kp-free for p ≥ 3) while still dense, which
// makes them the round-complexity workload of choice: communication loads
// are as heavy as in a dense graph, but the listing output stays tiny, so
// exact simulation remains tractable at large n (see DESIGN.md §4).
func RandomBipartite(n int, prob float64, rng *rand.Rand) *Graph {
	half := n / 2
	var edges []Edge
	if half > 0 {
		// Geometric skipping over the half×(n-half) grid.
		Sprinkle(rng, int64(half)*int64(n-half), prob, func(k int64) {
			u := V(k / int64(n-half))
			v := V(half) + V(k%int64(n-half))
			edges = append(edges, Edge{u, v})
		})
	}
	return MustNew(maxInt(n, 0), edges)
}

// BipartitePlusCliques overlays `count` disjoint k-cliques on a random
// bipartite background: high degeneracy and heavy communication loads, yet
// a clique population that is exactly the planted set plus the few cliques
// the overlay closes. The workload for the E1/E2/E4 round-shape sweeps.
func BipartitePlusCliques(n int, prob float64, k, count int, rng *rand.Rand) (*Graph, [][]V) {
	bg := RandomBipartite(n, prob, rng)
	edges := bg.Edges()
	if count*k > n {
		panic(fmt.Sprintf("graph: cannot plant %d cliques of size %d in %d vertices", count, k, n))
	}
	perm := rng.Perm(n)
	planted := make([][]V, 0, count)
	at := 0
	for c := 0; c < count; c++ {
		members := make([]V, k)
		for i := 0; i < k; i++ {
			members[i] = V(perm[at])
			at++
		}
		sortV(members)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, Edge{members[i], members[j]})
			}
		}
		planted = append(planted, members)
	}
	return MustNew(n, edges), planted
}

// Barbell returns two K_k cliques joined by a path of length bridgeLen
// (bridgeLen ≥ 1 edges). Useful as a worst case for mixing-time estimation
// and expander decomposition: the bridge must land in Er or Es.
func Barbell(k, bridgeLen int) *Graph {
	n := 2*k + maxInt(bridgeLen-1, 0)
	var edges []Edge
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, Edge{V(u), V(v)})
			edges = append(edges, Edge{V(k + u), V(k + v)})
		}
	}
	// Bridge from vertex 0 of clique A (ID k-1) to vertex 0 of clique B (ID k).
	prev := V(k - 1)
	for i := 0; i < bridgeLen-1; i++ {
		mid := V(2*k + i)
		edges = append(edges, Edge{prev, mid})
		prev = mid
	}
	edges = append(edges, Edge{prev, V(k)})
	return MustNew(n, edges)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sortV(s []V) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
