package graph

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
)

// CliqueBag is the accumulator every simulated listing engine writes
// into: a flat run of sorted p-tuples, duplicates allowed. Adding a
// clique appends its p vertices; merging two bags appends one to the
// other. Nothing is hashed or sorted until Cliques, which sorts and
// dedups once, so a listing gathered over many layers (tuples, clusters,
// passes, outer iterations) pays for one sort at the end instead of a
// map insert per clique per layer.
type CliqueBag struct {
	p  int
	vs []V
	// bits is the OR of every vertex added: bits.Len32(bits) is the
	// width of the largest one, and bit 31 is set iff a vertex is
	// negative.
	bits uint32
}

// NewCliqueBag returns an empty bag of p-cliques.
func NewCliqueBag(p int) *CliqueBag { return &CliqueBag{p: p} }

// P returns the clique size the bag holds.
func (b *CliqueBag) P() int { return b.p }

// Add appends c, which must hold exactly p vertices sorted ascending (the
// order every enumeration in this package yields). The bag keeps its own
// copy, so c may be a reused buffer.
func (b *CliqueBag) Add(c Clique) {
	if len(c) != b.p {
		panic(fmt.Sprintf("graph: %d-vertex clique added to a bag of %d-cliques", len(c), b.p))
	}
	for _, v := range c {
		b.bits |= uint32(v)
	}
	b.vs = append(b.vs, c...)
}

// AddBag appends every clique of o, duplicates included; o is unchanged.
func (b *CliqueBag) AddBag(o *CliqueBag) {
	if o.p != b.p {
		panic(fmt.Sprintf("graph: bag of %d-cliques merged into a bag of %d-cliques", o.p, b.p))
	}
	b.bits |= o.bits
	b.vs = append(b.vs, o.vs...)
}

// All yields the cliques in the order they were added, duplicates
// included, without sorting. Each yielded slice aliases the bag.
func (b *CliqueBag) All() iter.Seq[Clique] {
	return func(yield func(Clique) bool) {
		if b.p <= 0 {
			return
		}
		for i := 0; i < len(b.vs); i += b.p {
			if !yield(Clique(b.vs[i : i+b.p : i+b.p])) {
				return
			}
		}
	}
}

// Cliques returns the distinct cliques in lexicographic order: sub-slices
// of one fresh backing array, each capped at p so that an append to one
// cannot clobber its neighbour. An empty bag gives a non-nil empty slice
// (JSON renders it as []). The bag itself is left as it was.
//
// When p vertices of w = bits.Len32(max vertex) bits fit in 64 bits, each
// tuple is packed into a uint64 whose integer order is the tuple's
// lexicographic order, and the sort and dedup run on the integers;
// otherwise the tuples are sorted as slices.
func (b *CliqueBag) Cliques() []Clique {
	p := b.p
	if p <= 0 || len(b.vs) == 0 {
		return []Clique{}
	}
	var flat []V
	if w := bits.Len32(b.bits); w < 32 && p*w <= 64 {
		keys := make([]uint64, len(b.vs)/p)
		for i := range keys {
			var k uint64
			for _, v := range b.vs[i*p : (i+1)*p] {
				k = k<<w | uint64(v)
			}
			keys[i] = k
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		flat = make([]V, len(keys)*p)
		mask := uint64(1)<<w - 1
		for i, k := range keys {
			row := flat[i*p : (i+1)*p]
			for j := p - 1; j >= 0; j-- {
				row[j] = V(k & mask)
				k >>= w
			}
		}
	} else {
		rows := slices.Collect(b.All())
		slices.SortFunc(rows, cmpClique)
		rows = slices.CompactFunc(rows, slices.Equal)
		flat = make([]V, 0, len(rows)*p)
		for _, r := range rows {
			flat = append(flat, r...)
		}
	}
	out := make([]Clique, len(flat)/p)
	for i := range out {
		out[i] = Clique(flat[i*p : (i+1)*p : (i+1)*p])
	}
	return out
}
