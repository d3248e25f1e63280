// Package graph provides the graph substrate used throughout kplist: a
// compact adjacency representation, random-graph generators, degeneracy
// peeling and arboricity-bounded orientations, and exact sequential clique
// enumeration used as ground truth by every integration test.
//
// Vertices are dense integers in [0, N). The representation is immutable
// once built; algorithm phases that remove edges build new Graph values or
// operate on EdgeList views.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// V is a vertex identifier. Vertices are dense in [0, N).
type V = int32

// Edge is an undirected edge in canonical form (U < V).
type Edge struct {
	U, V V
}

// Canon returns e with endpoints swapped if needed so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not w. It panics if w is not an
// endpoint; callers hold edges they obtained from the graph, so a mismatch
// is a programming error.
func (e Edge) Other(w V) V {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", w, e))
}

func (e Edge) String() string {
	return fmt.Sprintf("{%d,%d}", e.U, e.V)
}

// Pack packs a canonical edge into one sortable uint64 key (U in the high
// half); UnpackEdge reverses it. Callers must canonicalize first.
func (e Edge) Pack() uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.V)) }

// UnpackEdge reverses Edge.Pack.
func UnpackEdge(k uint64) Edge { return Edge{U: V(k >> 32), V: V(uint32(k))} }

// Graph is an immutable undirected simple graph with vertices [0, n).
// Neighbor lists are sorted ascending, enabling O(log d) adjacency tests
// and linear-time sorted intersections.
type Graph struct {
	n   int
	m   int
	adj [][]V

	// kern caches the clique-enumeration kernel (flat CSR of the
	// degeneracy DAG), built lazily on the first listing call and shared
	// by every subsequent one — the graph is immutable, so the kernel
	// never invalidates. degen and orient cache the bucket peel and the
	// orientation derived from it the same way.
	kern   atomic.Pointer[kernel]
	degen  atomic.Pointer[DegeneracyResult]
	orient atomic.Pointer[Orientation]
}

// memo returns the value cached in p, computing it with build on first
// use. Racing first calls may each build, but all of them return the one
// value that won the compare-and-swap.
func memo[T any](p *atomic.Pointer[T], build func() *T) *T {
	if v := p.Load(); v != nil {
		return v
	}
	if v := build(); p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// New builds a graph with n vertices from an edge list. Duplicate edges and
// self-loops are ignored. Endpoints outside [0,n) yield an error.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int, n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	adj := make([][]V, n)
	for v := range adj {
		adj[v] = make([]V, 0, deg[v])
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	m := 0
	for v := range adj {
		adj[v] = sortDedup(adj[v])
		m += len(adj[v])
	}
	return &Graph{n: n, m: m / 2, adj: adj}, nil
}

// MustNew is New but panics on error; for tests and literals with known-good
// inputs.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func sortDedup(s []V) []V {
	if len(s) == 0 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v V) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree in g (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if len(g.adj[v]) > max {
			max = len(g.adj[v])
		}
	}
	return max
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v V) []V { return g.adj[v] }

// HasEdge reports whether {u,v} is an edge, via binary search on the shorter
// neighbor list.
func (g *Graph) HasEdge(u, v V) bool {
	if u == v {
		return false
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// Edges returns all edges in canonical form, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if V(u) < v {
				out = append(out, Edge{V(u), v})
			}
		}
	}
	return out
}

// AvgDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// CommonNeighbors returns the sorted intersection of the neighbor lists of
// u and v.
func (g *Graph) CommonNeighbors(u, v V) []V {
	return IntersectSorted(g.adj[u], g.adj[v])
}

// IntersectSorted returns the intersection of two ascending sorted slices.
func IntersectSorted(a, b []V) []V {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]V, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ContainsSorted reports whether x occurs in the ascending sorted slice s.
func ContainsSorted(s []V, x V) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// along with the mapping from new vertex IDs [0,len(vs)) back to original
// IDs. Duplicate vertices in vs are an error.
func (g *Graph) InducedSubgraph(vs []V) (*Graph, []V, error) {
	idx := make(map[V]V, len(vs))
	orig := make([]V, len(vs))
	for i, v := range vs {
		if v < 0 || int(v) >= g.n {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		idx[v] = V(i)
		orig[i] = v
	}
	var edges []Edge
	for i, v := range vs {
		for _, w := range g.adj[v] {
			j, ok := idx[w]
			if ok && V(i) < j {
				edges = append(edges, Edge{V(i), j})
			}
		}
	}
	sub, err := New(len(vs), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, in order of smallest member.
func (g *Graph) ConnectedComponents() [][]V {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]V
	queue := make([]V, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(comps)
		comp[s] = id
		queue = append(queue[:0], V(s))
		members := []V{V(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
					members = append(members, w)
				}
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		comps = append(comps, members)
	}
	return comps
}
