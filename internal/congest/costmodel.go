package congest

import "math"

// CostModel fixes the unit conventions used when phases charge the Ledger.
// See DESIGN.md §5. The paper's Õ(·) hides polylog factors; we make every
// such factor explicit and configurable so experiments can report both the
// raw structural cost (polylog = 1, the default, which is what exponent
// fitting wants) and a paper-literal bill.
type CostModel struct {
	// EdgeWords is the number of words an edge carries per round per
	// direction. CONGEST fixes this to 1.
	EdgeWords int64
	// RouterPolylog scales intra-cluster routing (Theorem 2.4): routing a
	// load of L through a cluster with minimum degree dmin costs
	// ceil(L/dmin) · RouterPolylog(n) rounds.
	RouterPolylog func(n int) int64
	// DecompositionPolylog scales the expander decomposition construction
	// (Theorem 2.3): one call costs n^(1-delta) · DecompositionPolylog(n).
	DecompositionPolylog func(n int) int64
	// CliquePolylog scales the per-cluster sparsity-aware listing delivery
	// (the O(p^2) and log factors that Remark 2.6 folds into Õ).
	CliquePolylog func(n int) int64
}

// UnitCosts returns the structural cost model: every polylog factor is 1.
// Exponent-fitting experiments use this so that log factors do not bend the
// measured slopes.
func UnitCosts() CostModel {
	one := func(int) int64 { return 1 }
	return CostModel{EdgeWords: 1, RouterPolylog: one, DecompositionPolylog: one, CliquePolylog: one}
}

// PaperCosts returns a paper-literal cost model where hidden factors are
// charged as ceil(log2 n) (routing, decomposition) — the constants inside
// Õ(·) are not specified by the paper, so a single log factor is the
// canonical choice.
func PaperCosts() CostModel {
	lg := func(n int) int64 { return Log2Ceil(n) }
	return CostModel{EdgeWords: 1, RouterPolylog: lg, DecompositionPolylog: lg, CliquePolylog: lg}
}

// Log2Ceil returns ceil(log2(n)) for n ≥ 2, and 1 for n < 2.
func Log2Ceil(n int) int64 {
	if n < 2 {
		return 1
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("congest: CeilDiv by non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// BroadcastRounds is the bill for a node sending `words` words to every
// neighbor (each edge carries EdgeWords per round): ceil(words/EdgeWords).
func (cm CostModel) BroadcastRounds(words int64) int64 {
	return CeilDiv(words, cm.EdgeWords)
}

// RouteRounds is the Theorem 2.4 bill: maximum per-node load L routed
// within a cluster of minimum degree dmin.
func (cm CostModel) RouteRounds(n int, maxLoad, minDeg int64) int64 {
	if minDeg < 1 {
		minDeg = 1
	}
	r := CeilDiv(maxLoad, minDeg*cm.EdgeWords) * cm.RouterPolylog(n)
	if r < 1 {
		r = 1
	}
	return r
}

// DecompositionRounds is the Theorem 2.3 bill for one δ-expander
// decomposition call on an n-vertex graph: Õ(n^(1−δ)).
func (cm CostModel) DecompositionRounds(n int, delta float64) int64 {
	if n < 2 {
		return 1
	}
	r := int64(math.Ceil(math.Pow(float64(n), 1-delta))) * cm.DecompositionPolylog(n)
	if r < 1 {
		r = 1
	}
	return r
}

// CliqueRounds is the bill for a congested-clique style phase on k nodes
// where the busiest node sends or receives maxLoad words: Lenzen routing
// delivers any such pattern in ceil(maxLoad/(k-1)) rounds.
func (cm CostModel) CliqueRounds(k int, maxLoad int64) int64 {
	if k < 2 {
		if maxLoad > 0 {
			return maxLoad
		}
		return 1
	}
	r := CeilDiv(maxLoad, int64(k-1)*cm.EdgeWords)
	if r < 1 {
		r = 1
	}
	return r
}
