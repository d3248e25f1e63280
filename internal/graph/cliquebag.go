package graph

import (
	"fmt"
	"iter"
	"slices"
)

// CliqueBag is the repository's one clique accumulator, set and sort:
// every simulated engine, the enumeration kernel's listing, the dynamic
// graph's frontier and kplist.Verify write into one. It holds sorted
// p-tuples, duplicates allowed, packed with stride p into slabs, so a
// million-clique listing costs dozens of allocations, not millions, and
// no row is ever moved until Cliques. Adding a clique copies its p
// vertices into the next slot; merging two bags shares the other bag's
// filled rows. Nothing is compared until Cliques, which sorts and dedups
// once, so a listing gathered over many layers (tuples, clusters,
// passes, outer iterations, kernel workers) pays for one sort at the
// end.
type CliqueBag struct {
	p    int
	full [][]V // filled rows, in add order; never written again
	slab []V   // the slab being filled: len = p·rows so far
	rows int
	// bound is at least uint32(v) for every vertex v the bag holds — the
	// OR of the vertices added, or a bound the kernel knows for its own —
	// so it reaches 2^31 iff a vertex may be negative.
	bound uint32
}

// A bag's slabs start at bagSlabMin rows and double with the bag's size
// up to bagSlabMax, so per-node bags of a handful of cliques stay small
// and a large listing wastes at most one partly filled slab.
const (
	bagSlabMin = 16
	bagSlabMax = 4096
)

// NewCliqueBag returns an empty bag of p-cliques.
func NewCliqueBag(p int) *CliqueBag { return &CliqueBag{p: p} }

// P returns the clique size the bag holds.
func (b *CliqueBag) P() int { return b.p }

// next returns the next stride-p slot, capped at p, opening a new slab
// when the current one is full.
func (b *CliqueBag) next() []V {
	if cap(b.slab)-len(b.slab) < b.p {
		if len(b.slab) > 0 {
			b.full = append(b.full, b.slab)
		}
		b.slab = make([]V, 0, min(max(b.rows, bagSlabMin), bagSlabMax)*b.p)
	}
	n := len(b.slab)
	b.slab = b.slab[:n+b.p]
	b.rows++
	return b.slab[n : n+b.p : n+b.p]
}

// Add appends c, which must hold exactly p vertices sorted ascending (the
// order every enumeration in this package yields). The bag keeps its own
// copy, so c may be a reused buffer.
func (b *CliqueBag) Add(c Clique) {
	if len(c) != b.p {
		panic(fmt.Sprintf("graph: %d-vertex clique added to a bag of %d-cliques", len(c), b.p))
	}
	for _, v := range c {
		b.bound |= uint32(v)
	}
	copy(b.next(), c)
}

// AddBag appends every clique of o, duplicates included. The bags share
// o's rows instead of copying them: b only reads them, and o only ever
// writes past them, so o is unchanged and may keep growing.
func (b *CliqueBag) AddBag(o *CliqueBag) {
	if o.p != b.p {
		panic(fmt.Sprintf("graph: bag of %d-cliques merged into a bag of %d-cliques", o.p, b.p))
	}
	if o.rows == 0 {
		return
	}
	b.seal()
	b.full = append(b.full, o.full...)
	if len(o.slab) > 0 {
		b.full = append(b.full, o.slab)
	}
	b.rows += o.rows
	b.bound |= o.bound
}

// seal moves the filled part of the current slab to full, so rows keep
// their add order when more runs follow; its spare capacity stays the
// bag's to fill.
func (b *CliqueBag) seal() {
	if len(b.slab) > 0 {
		b.full = append(b.full, b.slab)
		b.slab = b.slab[len(b.slab):]
	}
}

// All yields the cliques in the order they were added, duplicates
// included, without sorting. Each yielded slice aliases the bag.
func (b *CliqueBag) All() iter.Seq[Clique] {
	return func(yield func(Clique) bool) {
		for _, s := range append(slices.Clip(b.full), b.slab) {
			for i := 0; i < len(s); i += b.p {
				if !yield(Clique(s[i : i+b.p : i+b.p])) {
					return
				}
			}
		}
	}
}

// Cliques returns the distinct cliques in lexicographic order: sub-slices
// of one fresh backing array, each capped at p so that an append to one
// cannot clobber its neighbour. An empty bag gives a non-nil empty slice
// (JSON renders it as []). The bag keeps its cliques.
func (b *CliqueBag) Cliques() []Clique {
	return cliquesOf(b.sorted(), b.p)
}

// cliquesOf cuts packed stride-p rows into Cliques capped at p; no rows
// give a non-nil empty slice.
func cliquesOf(flat []V, p int) []Clique {
	if p <= 0 {
		return []Clique{}
	}
	out := make([]Clique, len(flat)/p)
	for i := range out {
		out[i] = Clique(flat[i*p : (i+1)*p : (i+1)*p])
	}
	return out
}

// sorted returns the bag's distinct rows in lexicographic order, packed
// with stride p into one fresh array. When the bag's vertex bound shows
// every vertex in [0, sortPackedMaxID), the rows take sortPacked's radix
// passes; a negative or larger vertex falls back to a comparison sort.
func (b *CliqueBag) sorted() []V {
	p := b.p
	if p <= 0 || b.rows == 0 {
		return nil
	}
	b.seal()
	var flat []V
	if b.bound < sortPackedMaxID && b.rows <= 1<<30 {
		flat = sortPacked(b.full, p, b.rows, V(b.bound))
	} else {
		rows := slices.Collect(b.All())
		slices.SortFunc(rows, cmpClique)
		flat = make([]V, 0, len(rows)*p)
		for _, r := range rows {
			flat = append(flat, r...)
		}
	}
	// Drop adjacent duplicates in place, comparing from the last column:
	// neighbouring rows mostly differ there.
	w := p
	for r := p; r < len(flat); r += p {
		j := p - 1
		for j >= 0 && flat[r+j] == flat[w-p+j] {
			j--
		}
		if j >= 0 {
			if w != r {
				copy(flat[w:w+p], flat[r:r+p])
			}
			w += p
		}
	}
	return flat[:w]
}

// sortPackedMaxID bounds the vertex IDs for which sortPacked runs its LSD
// radix passes (one counting array of up to sortPackedMaxID entries).
const sortPackedMaxID = 1 << 18

// sortPacked sorts the count stride-p rows held in segs into lexicographic
// order and returns them in one fresh array: p stable counting passes,
// last column first, no comparator. Every vertex must lie in [0, maxV],
// and count must fit an int32.
func sortPacked(segs [][]V, p, count int, maxV V) []V {
	cnt := make([]int32, int(maxV)+1)
	dst := make([]V, count*p)
	var spare []V
	if p > 1 {
		spare = make([]V, count*p)
	}
	var one [1][]V
	src := segs
	for d := p - 1; d >= 0; d-- {
		clear(cnt)
		for _, s := range src {
			for i := d; i < len(s); i += p {
				cnt[s[i]]++
			}
		}
		sum := int32(0)
		for v, c := range cnt {
			cnt[v] = sum
			sum += c
		}
		for _, s := range src {
			for i := 0; i < len(s); i += p {
				v := s[i+d]
				at := int(cnt[v]) * p
				cnt[v]++
				// An element loop: p is small, and a memmove call per row
				// costs more than the row.
				out := dst[at : at+p : at+p]
				for j, x := range s[i : i+p : i+p] {
					out[j] = x
				}
			}
		}
		one[0] = dst
		src = one[:]
		dst, spare = spare, dst
	}
	return src[0]
}

// cmpClique orders cliques lexicographically (shorter prefixes first) for
// slices.SortFunc.
func cmpClique(a, b Clique) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
