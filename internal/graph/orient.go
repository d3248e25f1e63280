package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Orientation assigns a direction to every edge of a working edge set. The
// pipeline maintains the paper's invariant that the out-degree of every
// vertex is bounded by (a constant multiple of) the arboricity, which is
// what makes "send your outgoing edges" phases cheap. An Orientation is
// immutable once built: Graph.DegeneracyOrientation hands the same one to
// every caller, so the lists Out returns are shared.
type Orientation struct {
	n   int
	out [][]V // out[v] = heads of edges oriented away from v, sorted
}

// NewOrientation builds an orientation over n vertices from explicit
// out-lists. The lists are canonicalized (sorted, deduped).
func NewOrientation(n int, out [][]V) (*Orientation, error) {
	if len(out) != n {
		return nil, fmt.Errorf("graph: orientation has %d out-lists for %d vertices", len(out), n)
	}
	cp := make([][]V, n)
	for v := range out {
		lst := make([]V, len(out[v]))
		copy(lst, out[v])
		lst = sortDedup(lst)
		for _, w := range lst {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: orientation head %d out of range [0,%d)", w, n)
			}
			if w == V(v) {
				return nil, fmt.Errorf("graph: self-loop in orientation at %d", v)
			}
		}
		cp[v] = lst
	}
	return &Orientation{n: n, out: cp}, nil
}

// N returns the number of vertices.
func (o *Orientation) N() int { return o.n }

// Out returns the sorted heads of edges oriented away from v. The slice is
// shared and must not be modified.
func (o *Orientation) Out(v V) []V { return o.out[v] }

// OutDegree returns the number of edges oriented away from v.
func (o *Orientation) OutDegree(v V) int { return len(o.out[v]) }

// MaxOutDegree returns the maximum out-degree, the quantity the paper's
// arboricity invariants bound.
func (o *Orientation) MaxOutDegree() int {
	max := 0
	for v := range o.out {
		if len(o.out[v]) > max {
			max = len(o.out[v])
		}
	}
	return max
}

// Edges returns the canonical undirected edge list covered by the
// orientation.
func (o *Orientation) Edges() EdgeList {
	var out EdgeList
	for v := range o.out {
		for _, w := range o.out[v] {
			out = append(out, Edge{V(v), w}.Canon())
		}
	}
	out.Normalize()
	return out
}

// EdgeCount returns the number of oriented edges.
func (o *Orientation) EdgeCount() int {
	c := 0
	for v := range o.out {
		c += len(o.out[v])
	}
	return c
}

// Owner returns the tail of edge e, i.e. the vertex that e is oriented away
// from, or -1 if e is not in the orientation.
func (o *Orientation) Owner(e Edge) V {
	if ContainsSorted(o.out[e.U], e.V) {
		return e.U
	}
	if ContainsSorted(o.out[e.V], e.U) {
		return e.V
	}
	return -1
}

// Restrict returns a new orientation containing only edges present in keep
// (which must be normalized).
func (o *Orientation) Restrict(keep EdgeList) *Orientation {
	out := make([][]V, o.n)
	for v := range o.out {
		for _, w := range o.out[v] {
			if keep.Contains(Edge{V(v), w}) {
				out[v] = append(out[v], w)
			}
		}
	}
	or, err := NewOrientation(o.n, out)
	if err != nil {
		panic(err) // restriction of a valid orientation is valid
	}
	return or
}

// Merge returns the union of two orientations over the same vertex set. If
// both orient the same undirected edge, the receiver's direction wins.
func (o *Orientation) Merge(other *Orientation) (*Orientation, error) {
	if o.n != other.n {
		return nil, fmt.Errorf("graph: merging orientations over %d and %d vertices", o.n, other.n)
	}
	have := o.Edges()
	out := make([][]V, o.n)
	for v := range o.out {
		out[v] = append(out[v], o.out[v]...)
	}
	for v := range other.out {
		for _, w := range other.out[v] {
			if !have.Contains(Edge{V(v), w}) {
				out[v] = append(out[v], w)
			}
		}
	}
	return NewOrientation(o.n, out)
}

// DegeneracyResult carries the output of a core-decomposition peel. A
// Graph computes it once and hands the same value to every caller, so
// its slices are shared and must not be modified.
type DegeneracyResult struct {
	// Order is the elimination order: Order[i] is the i-th vertex peeled.
	Order []V
	// Rank is the inverse permutation: Rank[v] = position of v in Order.
	Rank []int
	// Coreness[v] is the largest k such that v belongs to the k-core.
	Coreness []int
	// Degeneracy is max over v of Coreness[v]; the arboricity a(G)
	// satisfies a(G) ≤ degeneracy ≤ 2a(G) - 1.
	Degeneracy int
}

// peels counts bucket peels (Graph.peel runs); see Peels.
var peels atomic.Int64

// Peels returns how many degeneracy peels have run since process start
// (test instrumentation for the once-per-graph memo).
func Peels() int64 { return peels.Load() }

// Degeneracy returns the degeneracy ordering of g, computed on first use
// with the linear-time bucket algorithm (Matula–Beck) and memoized on g.
// Orienting each edge from the earlier to the later vertex in the order
// yields out-degree ≤ degeneracy.
func (g *Graph) Degeneracy() *DegeneracyResult {
	return memo(&g.degen, g.peel)
}

// peel runs the bucket peel behind Degeneracy.
func (g *Graph) peel() *DegeneracyResult {
	peels.Add(1)
	n := g.n
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = len(g.adj[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue of vertices by current degree.
	bucket := make([][]V, maxDeg+1)
	pos := make([]int, n) // index of v within bucket[deg[v]]
	for v := 0; v < n; v++ {
		pos[v] = len(bucket[deg[v]])
		bucket[deg[v]] = append(bucket[deg[v]], V(v))
	}
	removed := make([]bool, n)
	order := make([]V, 0, n)
	rank := make([]int, n)
	coreness := make([]int, n)
	degeneracy := 0
	cur := 0
	for len(order) < n {
		for cur <= maxDeg && len(bucket[cur]) == 0 {
			cur++
		}
		if cur > maxDeg {
			break
		}
		v := bucket[cur][len(bucket[cur])-1]
		bucket[cur] = bucket[cur][:len(bucket[cur])-1]
		if removed[v] {
			continue
		}
		removed[v] = true
		if cur > degeneracy {
			degeneracy = cur
		}
		coreness[v] = degeneracy
		rank[v] = len(order)
		order = append(order, v)
		for _, w := range g.adj[v] {
			if removed[w] {
				continue
			}
			d := deg[w]
			// Lazy deletion: remove w from its bucket by swap.
			b := bucket[d]
			pi := pos[w]
			if pi < len(b) && b[pi] == w {
				last := b[len(b)-1]
				b[pi] = last
				pos[last] = pi
				bucket[d] = b[:len(b)-1]
			} else {
				// Find and remove (rare path after swaps).
				for i, x := range b {
					if x == w {
						last := b[len(b)-1]
						b[i] = last
						pos[last] = i
						bucket[d] = b[:len(b)-1]
						break
					}
				}
			}
			deg[w] = d - 1
			pos[w] = len(bucket[d-1])
			bucket[d-1] = append(bucket[d-1], w)
			if d-1 < cur {
				cur = d - 1
			}
		}
	}
	return &DegeneracyResult{Order: order, Rank: rank, Coreness: coreness, Degeneracy: degeneracy}
}

// DegeneracyOrientation orients every edge of g from the endpoint peeled
// earlier to the one peeled later, giving max out-degree = degeneracy ≤
// 2·arboricity − 1. This is the orientation the pipeline threads through
// the paper's Theorems 2.8/2.9. It is built once and memoized on g.
func (g *Graph) DegeneracyOrientation() *Orientation {
	return memo(&g.orient, g.orientByRank)
}

// orientByRank builds the orientation behind DegeneracyOrientation.
func (g *Graph) orientByRank() *Orientation {
	res := g.Degeneracy()
	out := make([][]V, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if res.Rank[u] < res.Rank[int(v)] {
				out[u] = append(out[u], v)
			}
		}
	}
	o, err := NewOrientation(g.n, out)
	if err != nil {
		panic(err) // orientation from a valid graph is valid
	}
	return o
}

// ArboricityUpperBound returns a cheap upper bound on the arboricity of g:
// ceil((degeneracy+1)/2) ≤ a(G) ≤ degeneracy, we report the degeneracy
// (a valid out-degree bound for an orientation, which is what the paper's
// machinery actually consumes).
func (g *Graph) ArboricityUpperBound() int {
	return g.Degeneracy().Degeneracy
}

// PeelOrientation peels vertices of degree ≤ threshold repeatedly (the
// "low-degree peel" that the expander decomposition uses to populate Es):
// every peeled vertex contributes its ≤ threshold remaining edges, oriented
// away from it. It returns the orientation of the peeled edges, the peeled
// edge list, and the set of surviving vertices, each of which has degree >
// threshold within the surviving subgraph.
func PeelOrientation(n int, el EdgeList, threshold int) (*Orientation, EdgeList, []V) {
	adj := make(map[V][]V, n)
	for _, e := range el {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	deg := make(map[V]int, len(adj))
	for v, l := range adj {
		deg[v] = len(l)
	}
	removed := make(map[V]bool, len(adj))
	queue := make([]V, 0, len(adj))
	inQueue := make(map[V]bool, len(adj))
	for v, d := range deg {
		if d <= threshold {
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	// Deterministic processing order for reproducibility.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	out := make([][]V, n)
	var peeled EdgeList
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] {
			continue
		}
		removed[v] = true
		for _, w := range adj[v] {
			if removed[w] {
				continue
			}
			out[v] = append(out[v], w)
			peeled = append(peeled, Edge{v, w}.Canon())
			deg[w]--
			if deg[w] <= threshold && !inQueue[w] {
				queue = append(queue, w)
				inQueue[w] = true
			}
		}
	}
	var survivors []V
	for v := range adj {
		if !removed[v] {
			survivors = append(survivors, v)
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	peeled.Normalize()
	or, err := NewOrientation(n, out)
	if err != nil {
		panic(err) // peel of valid edges is valid
	}
	return or, peeled, survivors
}
