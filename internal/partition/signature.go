package partition

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"

	"kplist/internal/graph"
)

// A clique's signature is the sorted multiset of its vertices' parts. A
// partitioned graph (the cluster gateway's sharding) gives every one of
// the C(t+p−1, p) possible p-clique signatures to one shard, so each
// clique is listed by exactly the shard that owns its signature — the
// serving form of the part-tuple assignment above.

// Signatures enumerates every sorted p-multiset over parts [0,t) — the
// possible clique signatures, C(t+p−1, p) of them — in lexicographic
// order, so the i-th signature has SigIndex rank i.
func Signatures(t, p int) [][]int {
	var out [][]int
	sig := make([]int, p)
	var rec func(pos, lo int)
	rec = func(pos, lo int) {
		if pos == p {
			out = append(out, append([]int(nil), sig...))
			return
		}
		for part := lo; part < t; part++ {
			sig[pos] = part
			rec(pos+1, part)
		}
	}
	rec(0, 0)
	return out
}

// SigIndex ranks signatures without building a key: Rank(sig) is sig's
// position in Signatures(t, p). Counting the sorted multisets that
// precede sig position by position, the ones whose i-th part x lies in
// [sig[i−1], sig[i]) number M(t−x, r) each, where r = p−1−i and
// M(k, r) = C(k+r−1, r) counts the sorted r-multisets over k parts. cum
// holds their prefix sums, so a rank costs p lookups; the table is
// p×(t+1) integers, not the t^p a dense signature table would take.
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

// numSignatures returns C(t+p−1, p), or limit+1 once it exceeds limit, so
// that an absurd (t, p) pair costs neither an overflow nor a long loop.
func numSignatures(t, p, limit int) int {
	if t == 1 {
		return 1
	}
	if t > limit || p > limit {
		return limit + 1
	}
	c := 1
	for i := 1; i <= p; i++ {
		// c = C(t−1+i, i) after this step: an integer at every step.
		c = c * (t - 1 + i) / i
		if c > limit {
			return limit + 1
		}
	}
	return c
}

// Filter selects the p-cliques a shard of a partitioned graph owns: the
// ones whose signature under Random(n, T, rand.NewSource(Seed)) has its
// rank's bit set in Owned. It travels in a shard's query string, so a
// node filters its own stream without registration state. The zero Filter
// selects every clique. Filters compare with ==.
type Filter struct {
	Seed int64
	T    int
	// Owned is the hex bitmask of the owned signature ranks: rank r is
	// bit r%8 of byte r/8.
	Owned string
}

// The query parameters a Filter travels in.
const (
	FilterSeedParam  = "partseed"
	FilterPartsParam = "parts"
	FilterOwnedParam = "owned"
)

// NewFilter builds the Filter owning exactly the ranks r with owned[r];
// len(owned) must be the signature count C(t+p−1, p).
func NewFilter(seed int64, t int, owned []bool) Filter {
	mask := make([]byte, (len(owned)+7)/8)
	for r, ok := range owned {
		if ok {
			mask[r/8] |= 1 << (r % 8)
		}
	}
	return Filter{Seed: seed, T: t, Owned: hex.EncodeToString(mask)}
}

// IsZero reports whether f is the select-everything zero Filter.
func (f Filter) IsZero() bool { return f == Filter{} }

// Validate checks f against the clique size p: T ≥ 1, and Owned is hex
// of exactly the length C(T+p−1, p) bits take, with no bit set past the
// last rank.
func (f Filter) Validate(p int) error {
	_, err := f.mask(p)
	return err
}

// mask validates f and decodes its bitmask.
func (f Filter) mask(p int) ([]byte, error) {
	if f.T < 1 {
		return nil, fmt.Errorf("filter needs T ≥ 1 parts, got %d", f.T)
	}
	if p < 1 {
		return nil, fmt.Errorf("filter needs p ≥ 1, got %d", p)
	}
	count := numSignatures(f.T, p, 4*len(f.Owned))
	if want := 2 * ((count + 7) / 8); len(f.Owned) != want {
		return nil, fmt.Errorf("filter mask has %d hex digits, want %d for the C(%d+%d-1, %d) signatures",
			len(f.Owned), want, f.T, p, p)
	}
	mask, err := hex.DecodeString(f.Owned)
	if err != nil {
		return nil, fmt.Errorf("filter mask: %w", err)
	}
	if count%8 != 0 && mask[len(mask)-1]>>(count%8) != 0 {
		return nil, errors.New("filter mask sets bits past the last signature")
	}
	return mask, nil
}

// Matcher is a validated Filter bound to a graph's vertex count: Owns
// answers per clique. A Matcher holds scratch, so it serves one goroutine.
type Matcher struct {
	partOf []int32
	ix     SigIndex
	mask   []byte
	sig    []int32 // scratch: the sorted signature of the clique in hand
}

// Matcher binds f to p-cliques over n vertices, rebuilding the partition
// it was drawn from. f must pass Validate(p); Matcher panics otherwise.
func (f Filter) Matcher(n, p int) *Matcher {
	mask, err := f.mask(p)
	if err != nil {
		panic("partition: Matcher on an invalid Filter: " + err.Error())
	}
	m := &Matcher{mask: mask}
	if f.T > 1 {
		// With one part every clique has the one signature, rank 0: the
		// partition, table and scratch would only cost memory.
		m.partOf = Random(n, f.T, rand.New(rand.NewSource(f.Seed))).PartOf
		m.ix = NewSigIndex(f.T, p)
		m.sig = make([]int32, 0, p)
	}
	return m
}

// Owns reports whether c's signature is owned. c must be a p-clique over
// the Matcher's n vertices.
func (m *Matcher) Owns(c graph.Clique) bool {
	r := 0
	if m.partOf != nil {
		// Insertion sort: p is small and the parts arrive nearly sorted.
		m.sig = m.sig[:0]
		for _, v := range c {
			part := m.partOf[v]
			j := len(m.sig)
			m.sig = append(m.sig, part)
			for ; j > 0 && m.sig[j-1] > part; j-- {
				m.sig[j] = m.sig[j-1]
			}
			m.sig[j] = part
		}
		r = m.ix.Rank(m.sig)
	}
	return m.mask[r/8]>>(r%8)&1 == 1
}
