// Package partition implements the random vertex partitions of Lemma 2.7
// and the k^{1/p}-radix part-tuple assignment of §2.4.3.
//
// The sparsity-aware listing algorithm partitions the whole vertex set into
// t roughly equal parts; Lemma 2.7 guarantees that, w.h.p., the number of
// edges between any two parts (and inside any one part) is O(m/t^2). Each
// listing node is assigned a p-tuple of parts via the radix representation
// of its intra-cluster ID and must learn all edges between its parts.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"kplist/internal/graph"
)

// Partition is an assignment of the n vertices to parts [0, T).
type Partition struct {
	// PartOf[v] is the part of vertex v.
	PartOf []int32
	// Parts[i] lists the vertices of part i, sorted.
	Parts [][]graph.V
}

// T returns the number of parts.
func (p *Partition) T() int { return len(p.Parts) }

// Random assigns each of the n vertices independently and uniformly to one
// of t parts. The paper has each cluster node draw the choices for the
// vertices it simulates and broadcast them; an i.i.d. uniform assignment is
// exactly that distribution.
func Random(n, t int, rng *rand.Rand) *Partition {
	if t < 1 {
		t = 1
	}
	partOf := make([]int32, n)
	parts := make([][]graph.V, t)
	for v := 0; v < n; v++ {
		part := int32(rng.Intn(t))
		partOf[v] = part
		parts[part] = append(parts[part], graph.V(v))
	}
	return &Partition{PartOf: partOf, Parts: parts}
}

// PairIndex maps an unordered part pair (a,b), a ≤ b, to a dense index in
// [0, t(t+1)/2).
func PairIndex(a, b, t int) int {
	if a > b {
		a, b = b, a
	}
	// Row a of the upper triangle (with diagonal) starts after
	// a*t - a(a-1)/2 entries.
	return a*t - a*(a-1)/2 + (b - a)
}

// NumPairs returns t(t+1)/2, the number of unordered part pairs including
// diagonal pairs.
func NumPairs(t int) int { return t * (t + 1) / 2 }

// PairCounts returns, for every unordered part pair (a ≤ b), the number of
// edges of el with one endpoint in part a and the other in part b
// (same-part edges land on the diagonal pairs). Indexed by PairIndex.
func (p *Partition) PairCounts(el graph.EdgeList) []int64 {
	t := p.T()
	counts := make([]int64, NumPairs(t))
	for _, e := range el {
		a, b := int(p.PartOf[e.U]), int(p.PartOf[e.V])
		counts[PairIndex(a, b, t)]++
	}
	return counts
}

// MaxPairCount returns the largest pair count — the quantity Lemma 2.7
// bounds by 6q²m̄ (with q = 1/t) w.h.p.
func (p *Partition) MaxPairCount(el graph.EdgeList) int64 {
	max := int64(0)
	for _, c := range p.PairCounts(el) {
		if c > max {
			max = c
		}
	}
	return max
}

// Lemma27Bound returns the Lemma 2.7 w.h.p. bound 6·m/t² on the number of
// edges between any two parts; callers compare MaxPairCount against it.
func Lemma27Bound(m, t int) int64 {
	if t < 1 {
		t = 1
	}
	return int64(math.Ceil(6 * float64(m) / float64(t*t)))
}

// Lemma27Preconditions reports whether the lemma's hypotheses hold for the
// given graph scale: max degree ∆ ≤ m·q/(20 ln n) and q²m ≥ 400 ln² n,
// with q = 1/t.
func Lemma27Preconditions(n, m, maxDeg, t int) bool {
	if n < 2 || t < 1 {
		return false
	}
	q := 1.0 / float64(t)
	ln := math.Log(float64(n))
	return float64(maxDeg) <= float64(m)*q/(20*ln) && q*q*float64(m) >= 400*ln*ln
}

// Tuple is the p-tuple of parts assigned to one listing node.
type Tuple []int32

// TupleForID returns the radix-t representation of id as a p-digit tuple
// (least significant digit first), per §2.4.3: node u views the t-radix
// representation of its new ID and uses the digits as its assigned parts.
func TupleForID(id, t, p int) Tuple {
	tup := make(Tuple, p)
	for i := 0; i < p; i++ {
		tup[i] = int32(id % t)
		id /= t
	}
	return tup
}

// TupleCount returns t^p, the number of distinct tuples.
func TupleCount(t, p int) int {
	c := 1
	for i := 0; i < p; i++ {
		c *= t
	}
	return c
}

// PartsForListing returns the number of parts t to use so that all t^p
// tuples are covered by k listing nodes: t = floor(k^{1/p}), at least 1.
func PartsForListing(k, p int) int {
	if k < 1 || p < 1 {
		return 1
	}
	t := int(math.Floor(math.Pow(float64(k), 1/float64(p))))
	if t < 1 {
		t = 1
	}
	// Guard against floating point error in both directions.
	for TupleCount(t, p) > k {
		t--
	}
	for TupleCount(t+1, p) <= k {
		t++
	}
	if t < 1 {
		t = 1
	}
	return t
}

// Assignment precomputes, for a set of k listing nodes, which nodes
// subscribe to each part pair. Node i (0 ≤ i < k) holds TupleForID(i, t, p)
// if i < t^p; surplus nodes hold no tuple. An edge with endpoint parts
// (a, b) must be learned by every node whose tuple contains both a and b
// (footnote 7's O(p²k^{1−2/p}) fanout bound is verified in tests).
type Assignment struct {
	T, P, K int
	// SubscribersOf[PairIndex(a,b,T)] lists the node IDs whose tuple
	// contains both a and b.
	SubscribersOf [][]int32
	// Tuples[i] is node i's tuple (nil for surplus nodes).
	Tuples []Tuple
}

// NewAssignment builds the subscription table for k nodes, t parts, tuple
// width p.
func NewAssignment(k, t, p int) (*Assignment, error) {
	if TupleCount(t, p) > k {
		return nil, fmt.Errorf("partition: %d^%d tuples exceed %d nodes", t, p, k)
	}
	a := &Assignment{T: t, P: p, K: k}
	a.SubscribersOf = make([][]int32, NumPairs(t))
	a.Tuples = make([]Tuple, k)
	total := TupleCount(t, p)
	for id := 0; id < total; id++ {
		tup := TupleForID(id, t, p)
		a.Tuples[id] = tup
		// Subscribe to every unordered pair within the tuple (dedup).
		seen := make(map[int]bool, p*p)
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				pi := PairIndex(int(tup[i]), int(tup[j]), t)
				if !seen[pi] {
					seen[pi] = true
					a.SubscribersOf[pi] = append(a.SubscribersOf[pi], int32(id))
				}
			}
		}
	}
	return a, nil
}

// Subscribers returns the node IDs that must learn edges between parts a
// and b.
func (a *Assignment) Subscribers(partA, partB int32) []int32 {
	return a.SubscribersOf[PairIndex(int(partA), int(partB), a.T)]
}
