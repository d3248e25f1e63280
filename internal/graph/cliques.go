package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Clique is a set of p vertices, stored sorted ascending. It is the unit of
// output of every listing algorithm in this repository.
type Clique []V

// AppendKey appends the clique's canonical key bytes to dst and returns
// the extended slice. The clique must already be sorted; this is the
// allocation-free form of Key for hot paths that own a scratch buffer.
func (c Clique) AppendKey(dst []byte) []byte {
	for _, v := range c {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// Key packs the clique into a string usable as a map key. The clique must
// already be sorted (all producers in this repository sort).
func (c Clique) Key() string {
	return string(c.AppendKey(make([]byte, 0, 4*len(c))))
}

// CliqueFromKey reverses Clique.Key.
func CliqueFromKey(k string) Clique {
	c := make(Clique, len(k)/4)
	for i := range c {
		c[i] = V(binary.LittleEndian.Uint32([]byte(k[4*i : 4*i+4])))
	}
	return c
}

func (c Clique) String() string {
	return fmt.Sprintf("%v", []V(c))
}

// The NDJSON clique line — "[a,b,…]\n", one clique per line — is the wire
// format of every clique stream: the nodes' /cliques NDJSON responses and
// the shard streams the cluster gateway filters and merges. AppendLine is
// its only encoder and ParseCliqueLine its only decoder; both run once per
// streamed clique, so neither allocates.

// digits2 holds the decimal pairs "00".."99", two bytes each.
var digits2 = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// StreamBufferSize and StreamFlushEvery are the write policy of every
// NDJSON clique stream, node and gateway alike: lines collect in a
// StreamBufferSize buffer that goes out to the client every
// StreamFlushEvery lines — large enough to amortize syscalls, small
// enough that a slow consumer of a million-clique result never forces the
// writer to hold more than one chunk.
const (
	StreamBufferSize = 64 << 10
	StreamFlushEvery = 1024
)

// MaxLineLen bounds the NDJSON line of a p-clique: each vertex takes at
// most 11 bytes ("-2147483648") plus a separator, and the brackets and
// newline 3.
func MaxLineLen(p int) int { return 12*p + 3 }

// AppendLine appends the clique's NDJSON line to dst and returns the
// extended slice: the JSON array, byte for byte what json.Marshal renders
// for a non-nil Clique, then '\n'. It writes into dst's spare capacity,
// so a caller that passes a bufio.Writer's AvailableBuffer with at least
// MaxLineLen(len(c)) bytes free never allocates.
func (c Clique) AppendLine(dst []byte) []byte {
	dst = slices.Grow(dst, MaxLineLen(len(c)))
	b, n := dst[:cap(dst)], len(dst)
	b[n] = '['
	n++
	for i, v := range c {
		if i > 0 {
			b[n] = ','
			n++
		}
		u := uint32(v)
		if v < 0 {
			b[n] = '-'
			n++
			u = -u
		}
		n = putUint32(b, n, u)
	}
	b[n], b[n+1] = ']', '\n'
	return b[:n+2]
}

// LineLen is the length of the NDJSON line AppendLine writes for c, so a
// caller can size one buffer for many lines exactly.
func (c Clique) LineLen() int {
	n := 2 + len(c) // brackets and newline, plus one separator per vertex but the last
	if len(c) == 0 {
		n = 3
	}
	for _, v := range c {
		u := uint32(v)
		if v < 0 {
			n++
			u = -u
		}
		n += decimalLen(u)
	}
	return n
}

// putUint32 writes u in decimal at b[n:], two digits per division, and
// returns the index just past it.
func putUint32(b []byte, n int, u uint32) int {
	end := n + decimalLen(u)
	i := end
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		b[i], b[i+1] = digits2[2*r], digits2[2*r+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = digits2[2*u], digits2[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return end
}

// decimalLen is the number of decimal digits of u.
func decimalLen(u uint32) int {
	n := 1
	for p := uint32(10); n < 10 && u >= p; p *= 10 {
		n++
	}
	return n
}

// ParseCliqueLine decodes one NDJSON clique line, with or without its
// trailing '\n', appending the vertices to dst and returning the extended
// slice. It accepts exactly what AppendLine writes for vertices in [0,n):
// it rejects a missing bracket, an empty token, any byte that is not a
// digit (so a sign or whitespace), a leading zero, and a vertex outside
// [0,n) — which also bounds every token, so nothing overflows. One pass,
// no allocation unless dst must grow or the line is bad.
func ParseCliqueLine(line []byte, dst Clique, n int) (Clique, error) {
	if k := len(line); k > 0 && line[k-1] == '\n' {
		line = line[:k-1]
	}
	if len(line) < 2 || line[0] != '[' || line[len(line)-1] != ']' {
		return dst, badLine(line, "not a bracketed array")
	}
	body := line[1 : len(line)-1]
	if len(body) == 0 {
		return dst, nil
	}
	// V is 32-bit, so no vertex can reach past 1<<31 whatever n claims;
	// the clamp keeps v*10+9 far below overflow.
	limit := uint64(max(n, 0))
	if limit > 1<<31 {
		limit = 1 << 31
	}
	var v uint64
	digits := 0
	for i := 0; i <= len(body); i++ {
		if i == len(body) || body[i] == ',' {
			if digits == 0 {
				return dst, badLine(line, "empty vertex")
			}
			dst = append(dst, V(v))
			v, digits = 0, 0
			continue
		}
		d := body[i] - '0'
		if d > 9 {
			return dst, badLine(line, "non-digit byte")
		}
		if digits == 1 && v == 0 {
			return dst, badLine(line, "leading zero")
		}
		v = v*10 + uint64(d)
		digits++
		if v >= limit {
			return dst, badLine(line, fmt.Sprintf("vertex out of range [0,%d)", n))
		}
	}
	return dst, nil
}

func badLine(line []byte, why string) error {
	if len(line) > 64 {
		line = line[:64]
	}
	return fmt.Errorf("bad clique line %q: %s", line, why)
}

// CliqueSet is a set of cliques, used to compare algorithm output against
// ground truth exactly and to track a dynamic graph's listings. The
// engines accumulate into a CliqueBag instead, which is cheaper to fill.
type CliqueSet map[string]struct{}

// NewCliqueSet builds a set from a list of cliques, sorting each.
func NewCliqueSet(cs []Clique) CliqueSet {
	s := make(CliqueSet, len(cs))
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// keyInto canonicalizes c (copy + sort) into the provided scratch buffers
// and returns its key bytes; no heap allocation for cliques up to 16
// vertices (every p this repository lists).
func keyInto(c Clique, vbuf []V, kbuf []byte) []byte {
	cp := Clique(vbuf[:0])
	if len(c) > cap(vbuf) {
		cp = make(Clique, 0, len(c))
	}
	cp = append(cp, c...)
	sortV(cp)
	return cp.AppendKey(kbuf[:0])
}

// Add inserts a copy of c (sorted) into the set.
func (s CliqueSet) Add(c Clique) {
	var vbuf [16]V
	var kbuf [64]byte
	s[string(keyInto(c, vbuf[:], kbuf[:]))] = struct{}{}
}

// Has reports membership of c (order-insensitive).
func (s CliqueSet) Has(c Clique) bool {
	var vbuf [16]V
	var kbuf [64]byte
	_, ok := s[string(keyInto(c, vbuf[:], kbuf[:]))]
	return ok
}

// Len returns the number of cliques in the set.
func (s CliqueSet) Len() int { return len(s) }

// Equal reports exact set equality.
func (s CliqueSet) Equal(t CliqueSet) bool {
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if _, ok := t[k]; !ok {
			return false
		}
	}
	return true
}

// Minus returns the cliques in s that are not in t, sorted.
func (s CliqueSet) Minus(t CliqueSet) []Clique {
	var out []Clique
	for k := range s {
		if _, ok := t[k]; !ok {
			out = append(out, CliqueFromKey(k))
		}
	}
	slices.SortFunc(out, cmpClique)
	return out
}

// Cliques returns the members sorted lexicographically.
func (s CliqueSet) Cliques() []Clique {
	out := make([]Clique, 0, len(s))
	for k := range s {
		out = append(out, CliqueFromKey(k))
	}
	slices.SortFunc(out, cmpClique)
	return out
}

// kernel returns the graph's enumeration kernel, built once on first use
// and shared by every subsequent listing (the Graph is immutable).
func (g *Graph) kernel() *kernel {
	if k := g.kern.Load(); k != nil {
		return k
	}
	k := newGraphKernel(g)
	if g.kern.CompareAndSwap(nil, k) {
		return k
	}
	return g.kern.Load()
}

// ListCliques enumerates every clique of exactly p vertices in g, returning
// them sorted lexicographically. It runs the enumeration kernel with
// parallel root fan-out over GOMAXPROCS workers; the output is byte-
// identical for every worker count. Sequential-order time is
// O(m · d^{p-2}) where d is the degeneracy.
func (g *Graph) ListCliques(p int) []Clique {
	return g.ListCliquesWorkers(p, 0)
}

// ListCliquesWorkers is ListCliques with an explicit host-parallelism
// bound: 0 means GOMAXPROCS, 1 forces the sequential kernel. The output
// is identical for every value.
func (g *Graph) ListCliquesWorkers(p, workers int) []Clique {
	if p == 1 {
		var out []Clique
		for v := 0; v < g.n; v++ {
			out = append(out, Clique{V(v)})
		}
		return out
	}
	if p <= 0 {
		return nil
	}
	return g.kernel().list(p, workers)
}

// CountCliques counts cliques of exactly p vertices without materializing
// them, in parallel over GOMAXPROCS workers.
func (g *Graph) CountCliques(p int) int64 {
	return g.CountCliquesWorkers(p, 0)
}

// CountCliquesWorkers is CountCliques with an explicit worker bound
// (0 = GOMAXPROCS). With workers = 1 the count runs entirely on the
// caller's goroutine and, once the kernel is built, performs zero heap
// allocations — this is the steady-state path the alloc-regression canary
// pins.
func (g *Graph) CountCliquesWorkers(p, workers int) int64 {
	if p == 1 {
		return int64(g.n)
	}
	if p <= 0 {
		return 0
	}
	return g.kernel().count(p, workers)
}

// VisitCliques calls yield once per p-clique, in the kernel's
// deterministic sequential enumeration order. The clique slice is reused
// between calls; yield must copy it to retain it. Vertices within each
// yielded clique are sorted ascending.
func (g *Graph) VisitCliques(p int, yield func(Clique)) {
	g.VisitCliquesUntil(p, func(c Clique) bool {
		yield(c)
		return true
	})
}

// VisitCliquesUntil is VisitCliques with early termination: enumeration
// stops as soon as yield returns false, and the return value reports
// whether the enumeration ran to completion. This is the streaming
// surface — no clique is ever materialized beyond the reused yield slice.
func (g *Graph) VisitCliquesUntil(p int, yield func(Clique) bool) bool {
	if p <= 0 {
		return true
	}
	if p == 1 {
		c := make(Clique, 1)
		for v := 0; v < g.n; v++ {
			c[0] = V(v)
			if !yield(c) {
				return false
			}
		}
		return true
	}
	return g.kernel().visitSeq(p, yield)
}

// LocalLister enumerates p-cliques inside an arbitrary locally-known edge
// set — this is what a single simulated node runs over the edges it has
// learned. The vertex IDs are remapped onto a dense range and the edges
// indexed once into a flat CSR; enumeration runs on the same kernel as
// Graph.ListCliques.
type LocalLister struct {
	verts []V     // sorted unique vertex IDs appearing in the edge set
	off   []int32 // CSR offsets, len(verts)+1
	heads []V     // neighbor IDs (original space), ascending per row
	kern  *kernel
}

// NewLocalLister indexes the given edges (canonicalized, deduped on a
// private packed copy — no per-edge map allocation). Edges are packed
// into uint64 keys so the sort/dedup runs on the ordered fast path.
func NewLocalLister(edges []Edge) *LocalLister {
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 {
			continue // vertices are dense in [0, N) throughout the repo
		}
		e = e.Canon()
		keys = append(keys, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	// Dense vertex remap: position in the sorted unique endpoint list.
	// The relabeling is monotone, so neighbor rows sorted in dense space
	// are sorted in original space too. When the raw ID range is within a
	// constant factor of the edge count (the common case: engine-local
	// edge sets over a dense parent graph), the unique endpoints are
	// collected by a presence table — no endpoint sort — and the same
	// table then serves as an O(1) remap; sparse ID ranges fall back to
	// sort + binary search.
	var maxRaw V
	for _, k := range keys {
		if v := V(uint32(k)); v > maxRaw {
			maxRaw = v // canonical edges: the low half holds the larger ID
		}
	}
	var verts []V
	var table []int32
	if int(maxRaw) <= 4*len(keys)+1024 {
		table = make([]int32, int(maxRaw)+1)
		for _, k := range keys {
			table[V(k>>32)] = 1
			table[V(uint32(k))] = 1
		}
		verts = make([]V, 0, len(keys))
		for v := V(0); v <= maxRaw; v++ {
			if table[v] != 0 {
				table[v] = int32(len(verts))
				verts = append(verts, v)
			}
		}
	} else {
		verts = make([]V, 0, 2*len(keys))
		for _, k := range keys {
			verts = append(verts, V(k>>32), V(uint32(k)))
		}
		slices.Sort(verts)
		verts = slices.Compact(verts)
	}
	n := len(verts)
	idx := func(v V) int32 {
		if table != nil {
			return table[v]
		}
		i, _ := slices.BinarySearch(verts, v)
		return int32(i)
	}

	ll := &LocalLister{verts: verts, off: make([]int32, n+1)}
	deg := make([]int32, n)
	du := make([]int32, len(keys)) // memoized dense endpoints
	dv := make([]int32, len(keys))
	for i, k := range keys {
		du[i], dv[i] = idx(V(k>>32)), idx(V(uint32(k)))
		deg[du[i]]++
		deg[dv[i]]++
	}
	for v := 0; v < n; v++ {
		ll.off[v+1] = ll.off[v] + deg[v]
	}
	// Fill each CSR row in ascending order without per-row sorts: row v
	// first receives its smaller-ID neighbors (the U side of canonical
	// edges, ascending because keys are sorted), then its larger-ID
	// neighbors (the V side, likewise ascending).
	dense := make([]V, ll.off[n]) // dense-space heads for the kernel
	fill := make([]int32, n)
	for i := range keys {
		v := dv[i]
		dense[ll.off[v]+fill[v]] = V(du[i])
		fill[v]++
	}
	for i := range keys {
		u := du[i]
		dense[ll.off[u]+fill[u]] = V(dv[i])
		fill[u]++
	}
	ll.heads = make([]V, len(dense))
	for i, d := range dense {
		ll.heads[i] = verts[d]
	}
	ll.kern = newKernel(n, ll.off, dense, verts)
	return ll
}

// Neighbors returns the known sorted neighbors of v. The slice is shared
// and must not be modified.
func (ll *LocalLister) Neighbors(v V) []V {
	i, ok := slices.BinarySearch(ll.verts, v)
	if !ok {
		return nil
	}
	return ll.heads[ll.off[i]:ll.off[i+1]]
}

// HasEdge reports whether the lister knows edge {u,v}.
func (ll *LocalLister) HasEdge(u, v V) bool {
	return ContainsSorted(ll.Neighbors(u), v)
}

// VisitCliques enumerates every p-clique within the known edges, yielding
// each exactly once (sorted ascending; the slice is reused between calls).
func (ll *LocalLister) VisitCliques(p int, yield func(Clique)) {
	if p < 2 {
		return
	}
	ll.kern.visitSeq(p, func(c Clique) bool {
		yield(c)
		return true
	})
}

// AddCliques enumerates every bag.P()-clique within the known edges and
// appends each to bag; the engines' local-listing hot path.
func (ll *LocalLister) AddCliques(bag *CliqueBag) {
	if bag.P() < 2 {
		return
	}
	ll.kern.visitSeq(bag.P(), func(c Clique) bool {
		bag.Add(c)
		return true
	})
}

// ListCliques returns all p-cliques known to the lister, sorted.
func (ll *LocalLister) ListCliques(p int) []Clique {
	if p < 2 {
		return nil
	}
	return ll.kern.list(p, 1)
}
