// Package algebraic implements the matrix-multiplication-based triangle
// counting in the CONGESTED CLIQUE that the paper's §5 discussion
// contrasts with listing (Censor-Hillel, Kaski, Korhonen, Lenzen, Paz,
// Suomela — "Algebraic methods in the congested clique"): the number of
// triangles is tr(A³)/6, computable from A² entries on edges, and the
// distributed semiring matrix product takes O(n^{1/3}) rounds on n nodes.
//
// The paper under reproduction notes (§5) that counting via this route is
// faster than listing on dense graphs but resists the sparsity-aware
// treatment that makes listing implementable in CONGEST — this module
// exists to reproduce that comparison (DESIGN.md §4, E8).
//
// As with the rest of the pipeline, the computation is performed centrally
// (dense bitset row intersections — exactly the semiring products the
// distributed 3D algorithm would compute shard-wise) and the CONGESTED
// CLIQUE bill O(n^{1/3}) rounds is charged to the ledger.
package algebraic

import (
	"fmt"
	"math"
	"math/bits"

	"kplist/internal/congest"
	"kplist/internal/graph"
)

// bitRow is a dense bitset over the vertex set.
type bitRow []uint64

func newBitRow(n int) bitRow { return make(bitRow, (n+63)/64) }

func (r bitRow) set(i graph.V) { r[i>>6] |= 1 << (uint(i) & 63) }

// andCount returns |r ∧ s|.
func (r bitRow) andCount(s bitRow) int64 {
	var c int64
	for i := range r {
		c += int64(bits.OnesCount64(r[i] & s[i]))
	}
	return c
}

// TriangleCountCC counts the triangles of g and charges the congested
// clique the O(n^{1/3}) semiring matrix-multiplication bill. The count is
// exact: Σ_{edges {u,v}} |N(u) ∩ N(v)| counts every triangle once per
// edge, i.e. three times.
func TriangleCountCC(g *graph.Graph, cm congest.CostModel, ledger *congest.Ledger) (int64, error) {
	n := g.N()
	if n == 0 {
		ledger.Charge("algebraic-triangle-count", 1, 0)
		return 0, nil
	}
	rows := make([]bitRow, n)
	for v := 0; v < n; v++ {
		rows[v] = newBitRow(n)
		for _, w := range g.Neighbors(graph.V(v)) {
			rows[v].set(w)
		}
	}
	var triple int64
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(graph.V(u)) {
			if graph.V(u) < w {
				triple += rows[u].andCount(rows[w])
			}
		}
	}
	if triple%3 != 0 {
		return 0, fmt.Errorf("algebraic: inconsistent triple count %d", triple)
	}
	rounds := int64(math.Ceil(math.Cbrt(float64(n)))) * cm.CliquePolylog(n)
	if rounds < 1 {
		rounds = 1
	}
	// Message volume of the 3D algorithm: every node ships its O(n) row
	// shards to O(n^{1/3}) reducers.
	ledger.Charge("algebraic-triangle-count", rounds, int64(n)*rounds)
	return triple / 3, nil
}

// CommonNeighborCounts exposes the A² entries on edges (the per-edge
// triangle supports), used by the local-counting tests: supports[i]
// corresponds to g.Edges()[i].
func CommonNeighborCounts(g *graph.Graph) []int64 {
	n := g.N()
	rows := make([]bitRow, n)
	for v := 0; v < n; v++ {
		rows[v] = newBitRow(n)
		for _, w := range g.Neighbors(graph.V(v)) {
			rows[v].set(w)
		}
	}
	edges := g.Edges()
	out := make([]int64, len(edges))
	for i, e := range edges {
		out[i] = rows[e.U].andCount(rows[e.V])
	}
	return out
}
