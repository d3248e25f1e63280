package partition

// A clique's signature is the sorted multiset of its vertices' parts;
// there are C(t+p−1, p) of them over t parts.

// SigIndex ranks signatures without building a key: Rank(sig) is sig's
// position among the sorted p-multisets over [0,t) in lexicographic
// order. Counting the sorted multisets that precede sig position by
// position, the ones whose i-th part x lies in [sig[i−1], sig[i]) number
// M(t−x, r) each, where r = p−1−i and M(k, r) = C(k+r−1, r) counts the
// sorted r-multisets over k parts. cum holds their prefix sums, so a
// rank costs p lookups; the table is p×(t+1) integers, not the t^p a
// dense signature table would take.
type SigIndex struct {
	t, p int
	// cum[r*(t+1)+x] = Σ_{y<x} M(t−y, r).
	cum []int
}

// NewSigIndex builds the ranking table for p-signatures over t parts.
func NewSigIndex(t, p int) SigIndex {
	// multi[r][k] = M(k, r), by M(k, r) = M(k−1, r) + M(k, r−1): the
	// multisets that skip the smallest of k parts, plus those that hold
	// it at least once.
	multi := make([][]int, p)
	for r := range multi {
		multi[r] = make([]int, t+1)
		for k := range multi[r] {
			switch {
			case r == 0:
				multi[r][k] = 1
			case k > 0:
				multi[r][k] = multi[r][k-1] + multi[r-1][k]
			}
		}
	}
	ix := SigIndex{t: t, p: p, cum: make([]int, p*(t+1))}
	for r := 0; r < p; r++ {
		row := ix.cum[r*(t+1) : (r+1)*(t+1)]
		for x := 0; x < t; x++ {
			row[x+1] = row[x] + multi[r][t-x]
		}
	}
	return ix
}

// Rank returns the position of the sorted p-multiset sig over [0,t).
func (ix SigIndex) Rank(sig []int32) int {
	rank, prev := 0, 0
	for i, s := range sig {
		row := ix.cum[(ix.p-1-i)*(ix.t+1):]
		rank += row[s] - row[prev]
		prev = int(s)
	}
	return rank
}

// Count returns C(t+p−1, p), the number of signatures: every rank lies
// in [0, Count()).
func (ix SigIndex) Count() int {
	// The signatures whose first part is x number M(t−x, p−1); row p−1's
	// last prefix sum adds them up over every x.
	return ix.cum[(ix.p-1)*(ix.t+1)+ix.t]
}
