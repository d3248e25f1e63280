package graph

// The clique-enumeration kernel: a flat CSR representation of the
// degeneracy-oriented DAG with zero-allocation recursion and parallel
// root-vertex fan-out. Every listing surface in the repository bottoms out
// here — Graph.ListCliques/VisitCliques/CountCliques (the GroundTruth, and
// the listing every simulated engine returns: the engines only bill), the
// DynGraph trackers' first listing, and the kplistd streaming path. See
// DESIGN.md §8 for the layout and the intersection strategy.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The kernel's speed thresholds. None of them changes the listing: every
// setting yields the same cliques in the same order. They are variables
// only so that an in-package test can force each strategy (DESIGN.md §8).
var (
	// kernelRowMaxN bounds the vertex count for which the kernel builds
	// word-packed adjacency-row bitmaps (n·⌈n/64⌉ words ≈ n²/8 bytes;
	// 4096 → 2 MiB). Beyond it every intersection uses the sorted merge.
	kernelRowMaxN = 4096
	// kernelRowMinOut is the max-out-degree floor below which row bitmaps
	// are not worth building: a sorted merge against a ≤ 32-entry list is
	// already a handful of cache lines.
	kernelRowMinOut = 32
	// kernelBitsetCut switches one intersection from sorted merge,
	// O(|C|+|out(w)|), to bitmap probes, O(|C|): probe when out(w) is
	// this many times larger than the candidate set.
	kernelBitsetCut = 2
	// kernelRootChunk is how many root vertices a parallel worker claims
	// per fetch-add; coarse enough to keep contention negligible, fine
	// enough to balance skewed degree distributions.
	kernelRootChunk = 32
)

// kernel is the shared, immutable enumeration structure for one vertex
// set: vertices relabeled by degeneracy rank so that every clique appears
// exactly once as an increasing sequence of relabeled IDs, with the DAG
// out-neighborhoods (bounded by the degeneracy) laid out in one flat CSR.
// A kernel is built once per Graph and reused by every subsequent
// enumeration; concurrent visits are safe, each borrowing a private arena.
type kernel struct {
	n      int
	orig   []V     // orig[r] = the vertex of rank r
	maxID  V       // max caller-facing ID (the radix-sort bound)
	off    []int32 // len n+1: CSR offsets into heads
	heads  []V     // DAG out-neighbors in rank space, ascending per row
	maxOut int     // max DAG out-degree = degeneracy of the vertex set

	// rows, when non-nil, are word-packed adjacency bitmaps of the DAG
	// rows (rows[r·rowW : (r+1)·rowW] has bit c set iff c ∈ out(r)),
	// enabling O(|C|) intersections against dense neighborhoods.
	rows []uint64
	rowW int

	mu   sync.Mutex
	free []*kernelArena
}

// kernelArena is the per-worker recursion state: candidate buffers
// preallocated per depth and sized by the maximum out-degree, so the
// steady-state enumeration performs no allocation at all.
type kernelArena struct {
	prefix  []V    // current clique prefix, in rank space
	scratch Clique // emitted clique, in caller IDs, sorted
	bufs    [][]V  // bufs[d] backs the candidate set produced at depth d+1
}

// kernelBuilds counts full kernel constructions — the degeneracy peel +
// DAG CSR derivation path. Kernels adopted from a snapshot's stored CSR
// (kernelFromCSR) do not count, which is exactly what the persistence
// tests assert: opening a snapshot must not re-derive the CSR.
var kernelBuilds atomic.Int64

// KernelBuilds returns how many kernels have been constructed from raw
// adjacency since process start (test instrumentation for the snapshot
// zero-rebuild guarantee).
func KernelBuilds() int64 { return kernelBuilds.Load() }

// newKernel builds the kernel for the vertex set [0, n) given its full
// adjacency in CSR form (heads ascending per row). The kernel copies what
// it keeps, so the inputs may be scratch memory; the peel's temporaries
// come from s.
func newKernel(n int, adjOff []int32, adjHeads []V, s *buildScratch) *kernel {
	kernelBuilds.Add(1)
	order, rank := s.degeneracy(n, adjOff, adjHeads)
	k := &kernel{n: n, maxID: V(max(n-1, 0))}
	k.orig = make([]V, n)
	copy(k.orig, order)
	// DAG rows in rank space: edge u→w when rank[u] < rank[w]. Row r's
	// out-degree is counted into off[r+1], then prefix-summed in place.
	k.off = make([]int32, n+1)
	for u := 0; u < n; u++ {
		ru := rank[u]
		for _, w := range adjHeads[adjOff[u]:adjOff[u+1]] {
			if ru < rank[w] {
				k.off[ru+1]++
			}
		}
	}
	for r := 0; r < n; r++ {
		k.off[r+1] += k.off[r]
	}
	// Fill every DAG row in ascending order without per-row sorts by
	// iterating the target rank ascending: row ru receives rw in
	// increasing order of rw.
	k.heads = make([]V, k.off[n])
	s.fill = resize(s.fill, n)
	fill := s.fill
	copy(fill, k.off[:n])
	for rw := 0; rw < n; rw++ {
		w := order[rw]
		for _, u := range adjHeads[adjOff[w]:adjOff[w+1]] {
			if ru := rank[u]; ru < int32(rw) {
				k.heads[fill[ru]] = V(rw)
				fill[ru]++
			}
		}
	}
	for r := 0; r < n; r++ {
		if d := int(k.off[r+1] - k.off[r]); d > k.maxOut {
			k.maxOut = d
		}
	}
	k.buildRows()
	return k
}

// buildRows derives the word-packed adjacency-row bitmaps when the graph
// is small and dense enough for bitmap probing to pay off
// (kernelRowMaxN, kernelRowMinOut). The bitmaps are an acceleration
// structure, not part of the CSR: snapshot files never store them, and
// adopting a stored CSR re-derives them here.
func (k *kernel) buildRows() {
	if k.n <= kernelRowMaxN && k.maxOut >= kernelRowMinOut {
		k.rowW = (k.n + 63) / 64
		k.rows = make([]uint64, k.n*k.rowW)
		for r := 0; r < k.n; r++ {
			row := k.rows[r*k.rowW : (r+1)*k.rowW]
			for _, c := range k.heads[k.off[r]:k.off[r+1]] {
				row[c>>6] |= 1 << (uint(c) & 63)
			}
		}
	}
}

// kernelFromCSR adopts an already-derived degeneracy-DAG CSR — the
// snapshot load path. The slices are aliased, not copied (they may point
// into a read-only mapping and must not be written), and no degeneracy
// peel or CSR derivation runs: only the in-memory row bitmaps are
// rebuilt.
func kernelFromCSR(n int, off []int32, heads, orig []V, maxOut int, maxID V) *kernel {
	k := &kernel{n: n, orig: orig, maxID: maxID, off: off, heads: heads, maxOut: maxOut}
	k.buildRows()
	return k
}

// buildScratch is the temporary memory of one kernel build: the
// adjacency CSR and the degeneracy peel's arrays. None of it outlives the
// build — the kernel copies what it keeps — so builds borrow it from
// buildPool and the steady state allocates only the kernel itself.
type buildScratch struct {
	off      []int32 // adjacency CSR offsets
	fill     []int32 // DAG row cursors
	dense    []V     // adjacency CSR heads
	deg, bin []int32 // peel: remaining degrees, bucket starts
	pos      []int32 // peel: vertex → position in vert (the rank)
	vert     []V     // peel: vertices in peel order
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// degeneracy is the linear-time Batagelj–Zaveršnik peel over a CSR
// adjacency — flat bin/position arrays, no per-bucket slices: order[i] is
// the i-th vertex peeled (ascending remaining degree), rank its inverse
// permutation. Both results are backed by s.
func (s *buildScratch) degeneracy(n int, off []int32, heads []V) (order []V, rank []int32) {
	s.deg = resize(s.deg, n)
	deg := s.deg
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = off[v+1] - off[v]
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Counting-sort vertices by degree: bin[d] = start of bucket d.
	s.bin = resize(s.bin, int(maxDeg)+2)
	bin := s.bin
	clear(bin)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	s.vert, s.pos = resize(s.vert, n), resize(s.pos, n)
	vert, pos := s.vert, s.pos
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = V(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	// Peel in place: vert stays sorted by remaining degree, each peeled
	// neighbor swaps to the front of its bucket and the bucket shrinks.
	for i := 0; i < n; i++ {
		v := vert[i]
		dv := deg[v]
		for _, w := range heads[off[v]:off[v+1]] {
			// Only neighbors of strictly larger remaining degree move:
			// equal-degree neighbors belong to the same shell, and their
			// bucket start may lie inside the peeled prefix.
			if pos[w] <= int32(i) || deg[w] <= dv {
				continue
			}
			dw := deg[w]
			fw := bin[dw]
			u := vert[fw]
			if u != w {
				vert[fw], vert[pos[w]] = w, u
				pos[u] = pos[w]
				pos[w] = fw
			}
			bin[dw]++
			deg[w]--
		}
	}
	return vert, pos
}

// newGraphKernel flattens a Graph's adjacency into CSR form and builds the
// kernel over it.
func newGraphKernel(g *Graph) *kernel {
	s := buildPool.Get().(*buildScratch)
	defer buildPool.Put(s)
	s.off = resize(s.off, g.n+1)
	off := s.off
	off[0] = 0
	for v := 0; v < g.n; v++ {
		off[v+1] = off[v] + int32(len(g.adj[v]))
	}
	s.dense = resize(s.dense, int(off[g.n]))
	heads := s.dense
	for v := 0; v < g.n; v++ {
		copy(heads[off[v]:off[v+1]], g.adj[v])
	}
	return newKernel(g.n, off, heads, s)
}

// getArena borrows an arena sized for cliques of up to p vertices; it is
// returned to the kernel's free list by putArena, so steady-state
// enumeration allocates nothing.
func (k *kernel) getArena(p int) *kernelArena {
	k.mu.Lock()
	var a *kernelArena
	if n := len(k.free); n > 0 {
		a = k.free[n-1]
		k.free = k.free[:n-1]
	}
	k.mu.Unlock()
	if a == nil {
		a = &kernelArena{}
	}
	if cap(a.prefix) < p {
		a.prefix = make([]V, p)
		a.scratch = make(Clique, p)
	}
	a.prefix = a.prefix[:p]
	a.scratch = a.scratch[:p]
	for len(a.bufs) < p-2 {
		a.bufs = append(a.bufs, make([]V, 0, k.maxOut))
	}
	return a
}

func (k *kernel) putArena(a *kernelArena) {
	k.mu.Lock()
	k.free = append(k.free, a)
	k.mu.Unlock()
}

// intersectInto writes cands ∩ out(w) into dst[:0] and returns it. Both
// inputs are ascending in rank space; every common element has rank > w,
// so callers may pass the suffix of cands after w. The strategy is
// hybrid: word-packed bitmap probes of w's pre-marked adjacency row when
// out(w) dwarfs the candidate set, sorted merge otherwise.
func (k *kernel) intersectInto(dst, cands []V, w V) []V {
	out := k.heads[k.off[w]:k.off[w+1]]
	dst = dst[:0]
	if k.rows != nil && len(out) > kernelBitsetCut*len(cands) {
		row := k.rows[int(w)*k.rowW : (int(w)+1)*k.rowW]
		for _, c := range cands {
			if row[c>>6]&(1<<(uint(c)&63)) != 0 {
				dst = append(dst, c)
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(cands) && j < len(out) {
		a, b := cands[i], out[j]
		if a == b {
			dst = append(dst, a)
			i++
			j++
		} else if a < b {
			i++
		} else {
			j++
		}
	}
	return dst
}

// visitRange enumerates every p-clique (p ≥ 2) whose minimum-rank vertex
// lies in [lo, hi), yielding each with its caller-facing IDs sorted
// ascending into the arena's scratch slice. It returns false iff yield
// aborted the enumeration.
func (k *kernel) visitRange(lo, hi, p int, a *kernelArena, yield func(Clique) bool) bool {
	need := p - 1
	for r := lo; r < hi; r++ {
		c0 := k.heads[k.off[r]:k.off[r+1]]
		if len(c0) < need {
			continue
		}
		a.prefix[0] = V(r)
		if !k.expand(c0, 1, need, a, yield) {
			return false
		}
	}
	return true
}

// expand grows the prefix (depth vertices so far) by every viable
// candidate, needing `need` more vertices to complete a clique.
func (k *kernel) expand(cands []V, depth, need int, a *kernelArena, yield func(Clique) bool) bool {
	if need == 1 {
		for _, w := range cands {
			a.prefix[depth] = w
			if !k.emit(depth+1, a, yield) {
				return false
			}
		}
		return true
	}
	buf := a.bufs[depth-1]
	for i, w := range cands {
		if len(cands)-i < need {
			return true
		}
		next := k.intersectInto(buf, cands[i+1:], w)
		if len(next) < need-1 {
			continue
		}
		a.prefix[depth] = w
		if !k.expand(next, depth+1, need-1, a, yield) {
			return false
		}
	}
	return true
}

// emit maps the completed rank-space prefix back to caller IDs, sorts
// them, and yields. The scratch slice is reused between emissions.
func (k *kernel) emit(size int, a *kernelArena, yield func(Clique) bool) bool {
	s := a.scratch[:size]
	for i := 0; i < size; i++ {
		s[i] = k.orig[a.prefix[i]]
	}
	sortV(s)
	return yield(s)
}

// countRange is visitRange without emission: completed prefixes are
// counted in bulk at the last level, never materialized or sorted, so the
// hot loop is pure intersection work with zero allocation.
func (k *kernel) countRange(lo, hi, p int) int64 {
	if p < 2 {
		return 0
	}
	a := k.getArena(p)
	var total int64
	need := p - 1
	for r := lo; r < hi; r++ {
		c0 := k.heads[k.off[r]:k.off[r+1]]
		if len(c0) < need {
			continue
		}
		total += k.countExpand(c0, 1, need, a)
	}
	k.putArena(a)
	return total
}

func (k *kernel) countExpand(cands []V, depth, need int, a *kernelArena) int64 {
	if need == 1 {
		return int64(len(cands))
	}
	var total int64
	buf := a.bufs[depth-1]
	for i, w := range cands {
		if len(cands)-i < need {
			return total
		}
		next := k.intersectInto(buf, cands[i+1:], w)
		if len(next) < need-1 {
			continue
		}
		total += k.countExpand(next, depth+1, need-1, a)
	}
	return total
}

// empty reports that the kernel has no p-clique to enumerate: p < 2, no
// vertices, or p > maxOut+1 — a p-clique's lowest-rank vertex has the
// other p−1 among its out-neighbours. The entry points check it before
// borrowing an arena, which is O(p) in size: a huge p costs nothing.
func (k *kernel) empty(p int) bool {
	return p < 2 || k.n == 0 || p > k.maxOut+1
}

// visitSeq is the sequential whole-range visit used by the streaming
// surfaces: deterministic enumeration order, abortable via yield.
func (k *kernel) visitSeq(p int, yield func(Clique) bool) bool {
	if k.empty(p) {
		return true
	}
	a := k.getArena(p)
	ok := k.visitRange(0, k.n, p, a, yield)
	k.putArena(a)
	return ok
}

// kernelWorkers resolves a Workers knob: ≤ 0 means GOMAXPROCS, and the
// fan-out never exceeds the root count.
func kernelWorkers(workers, roots int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > roots {
		workers = roots
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// count enumerates in parallel over root vertices and returns the total
// number of p-cliques. workers ≤ 0 means GOMAXPROCS.
func (k *kernel) count(p, workers int) int64 {
	if k.empty(p) {
		return 0
	}
	workers = kernelWorkers(workers, k.n)
	if workers == 1 {
		return k.countRange(0, k.n, p)
	}
	chunk := kernelRootChunk
	var total atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sub int64
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= k.n {
					break
				}
				hi := min(lo+chunk, k.n)
				sub += k.countRange(lo, hi, p)
			}
			total.Add(sub)
		}()
	}
	wg.Wait()
	return total.Load()
}

// collectRange enumerates roots [lo, hi) straight into the bag:
// completed cliques are mapped to caller IDs and sorted in place inside
// the bag's next slot, skipping the visitor indirection and the scratch
// copy.
func (k *kernel) collectRange(lo, hi, p int, a *kernelArena, bag *CliqueBag) {
	need := p - 1
	for r := lo; r < hi; r++ {
		c0 := k.heads[k.off[r]:k.off[r+1]]
		if len(c0) < need {
			continue
		}
		a.prefix[0] = V(r)
		k.collectExpand(c0, 1, need, a, bag)
	}
}

func (k *kernel) collectExpand(cands []V, depth, need int, a *kernelArena, bag *CliqueBag) {
	if need == 1 {
		for _, w := range cands {
			slot := bag.next()
			for i := 0; i < depth; i++ {
				slot[i] = k.orig[a.prefix[i]]
			}
			slot[depth] = k.orig[w]
			sortV(slot)
		}
		return
	}
	buf := a.bufs[depth-1]
	for i, w := range cands {
		if len(cands)-i < need {
			return
		}
		next := k.intersectInto(buf, cands[i+1:], w)
		if len(next) < need-1 {
			continue
		}
		a.prefix[depth] = w
		k.collectExpand(next, depth+1, need-1, a, bag)
	}
}

// collect appends every bag.P()-clique to bag. One worker enumerates in
// the kernel's sequential order; more split the roots in dynamic chunks,
// the first filling bag and each other a bag of its own that is merged
// into bag afterwards — so only the sorted listing, not the add order, is
// independent of the worker count.
func (k *kernel) collect(bag *CliqueBag, workers int) {
	p := bag.P()
	if k.empty(p) {
		return
	}
	bag.bound |= uint32(k.maxID) // every caller-facing ID lies in [0, maxID]
	workers = kernelWorkers(workers, k.n)
	if workers == 1 {
		a := k.getArena(p)
		k.collectRange(0, k.n, p, a, bag)
		k.putArena(a)
		return
	}
	bags := make([]*CliqueBag, workers)
	chunk := kernelRootChunk
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range bags {
		bags[w] = bag
		if w > 0 {
			bags[w] = NewCliqueBag(p)
		}
		wg.Add(1)
		go func(wb *CliqueBag) {
			defer wg.Done()
			a := k.getArena(p)
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= k.n {
					break
				}
				hi := min(lo+chunk, k.n)
				k.collectRange(lo, hi, p, a, wb)
			}
			k.putArena(a)
		}(bags[w])
	}
	wg.Wait()
	segs := 0
	for _, wb := range bags {
		segs += len(wb.full) + 1
	}
	bag.full = slices.Grow(bag.full, segs)
	for _, wb := range bags[1:] {
		bag.AddBag(wb)
	}
}

// list enumerates in parallel and returns every p-clique sorted
// lexicographically, or nil if there is none — byte-identical for every
// worker count: the clique vectors are pairwise distinct, so the bag's
// sort fully determines the order however the root chunks interleaved.
func (k *kernel) list(p, workers int) []Clique {
	if k.empty(p) {
		return nil
	}
	bag := NewCliqueBag(p)
	k.collect(bag, workers)
	if bag.rows == 0 {
		return nil
	}
	return bag.Cliques()
}
