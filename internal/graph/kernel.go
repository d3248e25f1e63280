package graph

// The clique-enumeration kernel: a flat CSR representation of the
// degeneracy-oriented DAG with zero-allocation recursion and parallel
// root-vertex fan-out. Every listing surface in the repository bottoms out
// here — Graph.ListCliques/VisitCliques/CountCliques (the GroundTruth the
// distributed engines are verified against), LocalLister (the per-node
// enumeration inside every simulated engine), and the kplistd streaming
// path. See DESIGN.md §8 for the layout and the intersection strategy.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The built-in knob defaults, exposed (and overridable per host) through
// Tuning — every kernel captures the process-wide Tuning at construction,
// so these constants are only the DefaultTuning values.
const (
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
// A kernel is built once per Graph (or LocalLister) and reused by every
// subsequent enumeration; concurrent visits are safe, each borrowing a
// private arena.
type kernel struct {
	n      int
	orig   []V     // orig[r] = caller-facing vertex ID of rank r
	maxID  V       // max caller-facing ID (radix-sort digit bound)
	off    []int32 // len n+1: CSR offsets into heads
	heads  []V     // DAG out-neighbors in rank space, ascending per row
	maxOut int     // max DAG out-degree = degeneracy of the vertex set

	// rows, when non-nil, are word-packed adjacency bitmaps of the DAG
	// rows (rows[r·rowW : (r+1)·rowW] has bit c set iff c ∈ out(r)),
	// enabling O(|C|) intersections against dense neighborhoods.
	rows []uint64
	rowW int

	// bitsetCut and rootChunk are the process-wide Tuning knobs captured
	// at construction, so one kernel's behavior never changes mid-life.
	bitsetCut int
	rootChunk int

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

// newKernel builds the kernel for a dense vertex set given its full
// adjacency in CSR form (heads ascending per row) and the mapping from
// dense IDs back to caller-facing IDs (orig[i] for dense vertex i; nil
// means the identity).
func newKernel(n int, adjOff []int32, adjHeads []V, orig []V) *kernel {
	kernelBuilds.Add(1)
	order, rank := degeneracyCSR(n, adjOff, adjHeads)
	tn := CurrentTuning()
	k := &kernel{n: n, bitsetCut: tn.BitsetCut, rootChunk: tn.RootChunk}
	k.orig = make([]V, n)
	for r := 0; r < n; r++ {
		if orig == nil {
			k.orig[r] = order[r]
		} else {
			k.orig[r] = orig[order[r]]
		}
		if k.orig[r] > k.maxID {
			k.maxID = k.orig[r]
		}
	}
	// DAG rows in rank space: edge u→w when rank[u] < rank[w].
	deg := make([]int32, n+1)
	for u := 0; u < n; u++ {
		ru := rank[u]
		for _, w := range adjHeads[adjOff[u]:adjOff[u+1]] {
			if ru < rank[w] {
				deg[ru]++
			}
		}
	}
	k.off = make([]int32, n+1)
	for r := 0; r < n; r++ {
		k.off[r+1] = k.off[r] + deg[r]
	}
	// Fill every DAG row in ascending order without per-row sorts by
	// iterating the target rank ascending: row ru receives rw in
	// increasing order of rw.
	k.heads = make([]V, k.off[n])
	fill := make([]int32, n)
	for rw := 0; rw < n; rw++ {
		w := order[rw]
		for _, u := range adjHeads[adjOff[w]:adjOff[w+1]] {
			if ru := rank[u]; ru < int32(rw) {
				k.heads[k.off[ru]+fill[ru]] = V(rw)
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
// is small and dense enough for bitmap probing to pay off (thresholds
// from the process-wide Tuning). The bitmaps are an acceleration
// structure, not part of the CSR: snapshot files never store them, and
// adopting a stored CSR re-derives them here.
func (k *kernel) buildRows() {
	tn := CurrentTuning()
	if k.n <= tn.RowMaxN && k.maxOut >= tn.RowMinOut {
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
	tn := CurrentTuning()
	k := &kernel{
		n: n, orig: orig, maxID: maxID, off: off, heads: heads, maxOut: maxOut,
		bitsetCut: tn.BitsetCut, rootChunk: tn.RootChunk,
	}
	k.buildRows()
	return k
}

// degeneracyCSR is the linear-time Batagelj–Zaveršnik peel over a CSR
// adjacency — flat bin/position arrays, no per-bucket slices: order[i] is
// the i-th vertex peeled (ascending remaining degree), rank its inverse
// permutation.
func degeneracyCSR(n int, off []int32, heads []V) (order []V, rank []int32) {
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = off[v+1] - off[v]
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Counting-sort vertices by degree: bin[d] = start of bucket d.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	vert := make([]V, n)
	pos := make([]int32, n)
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
// kernel over it (identity vertex mapping).
func newGraphKernel(g *Graph) *kernel {
	off := make([]int32, g.n+1)
	for v := 0; v < g.n; v++ {
		off[v+1] = off[v] + int32(len(g.adj[v]))
	}
	heads := make([]V, off[g.n])
	for v := 0; v < g.n; v++ {
		copy(heads[off[v]:off[v+1]], g.adj[v])
	}
	return newKernel(g.n, off, heads, nil)
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
	if k.rows != nil && len(out) > k.bitsetCut*len(cands) {
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
	chunk := k.rootChunk
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

// cliqueCollector accumulates packed clique copies (stride p, no slice
// headers) carved out of slabs, so a million-clique listing costs dozens —
// not millions — of allocations and the merge phase can radix-sort one
// flat backing array.
type cliqueCollector struct {
	full [][]V // filled slabs
	slab []V   // current slab, len = packed cliques so far
	p    int
}

// grab returns the next stride-p slot in the current slab.
func (c *cliqueCollector) grab() []V {
	if cap(c.slab)-len(c.slab) < c.p {
		if len(c.slab) > 0 {
			c.full = append(c.full, c.slab)
		}
		c.slab = make([]V, 0, 8192*c.p)
	}
	n := len(c.slab)
	c.slab = c.slab[:n+c.p]
	return c.slab[n : n+c.p : n+c.p]
}

func (c *cliqueCollector) add(cl Clique) {
	copy(c.grab(), cl)
}

func (c *cliqueCollector) size() int {
	n := len(c.slab)
	for _, s := range c.full {
		n += len(s)
	}
	return n
}

// collectRange enumerates roots [lo, hi) straight into the collector:
// completed cliques are mapped to caller IDs and sorted in place inside
// the slab slot, skipping the visitor indirection and the scratch copy.
func (k *kernel) collectRange(lo, hi, p int, a *kernelArena, c *cliqueCollector) {
	need := p - 1
	for r := lo; r < hi; r++ {
		c0 := k.heads[k.off[r]:k.off[r+1]]
		if len(c0) < need {
			continue
		}
		a.prefix[0] = V(r)
		k.collectExpand(c0, 1, need, a, c)
	}
}

func (k *kernel) collectExpand(cands []V, depth, need int, a *kernelArena, c *cliqueCollector) {
	if need == 1 {
		for _, w := range cands {
			slot := c.grab()
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
		k.collectExpand(next, depth+1, need-1, a, c)
	}
}

// list enumerates in parallel and returns every p-clique sorted
// lexicographically — byte-identical for every worker count: the clique
// vectors are pairwise distinct, so the final sort fully determines the
// order regardless of how the dynamic root chunks interleaved.
func (k *kernel) list(p, workers int) []Clique {
	if k.empty(p) {
		return nil
	}
	workers = kernelWorkers(workers, k.n)
	collectors := make([]cliqueCollector, workers)
	for i := range collectors {
		collectors[i].p = p
	}
	if workers == 1 {
		a := k.getArena(p)
		k.collectRange(0, k.n, p, a, &collectors[0])
		k.putArena(a)
	} else {
		chunk := k.rootChunk
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c *cliqueCollector) {
				defer wg.Done()
				a := k.getArena(p)
				for {
					lo := int(next.Add(int64(chunk))) - chunk
					if lo >= k.n {
						break
					}
					hi := min(lo+chunk, k.n)
					k.collectRange(lo, hi, p, a, c)
				}
				k.putArena(a)
			}(&collectors[w])
		}
		wg.Wait()
	}
	total := 0
	for i := range collectors {
		total += collectors[i].size()
	}
	if total == 0 {
		return nil
	}
	count := total / p
	flat := make([]V, 0, total)
	for i := range collectors {
		for _, s := range collectors[i].full {
			flat = append(flat, s...)
		}
		flat = append(flat, collectors[i].slab...)
	}
	k.sortPacked(flat, p, count)
	out := make([]Clique, count)
	for i := 0; i < count; i++ {
		out[i] = Clique(flat[i*p : (i+1)*p : (i+1)*p])
	}
	return out
}

// sortPackedMaxID bounds the vertex-ID range for which the packed sort
// uses LSD radix passes (one counting array of maxID+1 entries per pass).
const sortPackedMaxID = 1 << 18

// sortPacked sorts count stride-p clique vectors packed in flat into
// lexicographic order. Vertex IDs below sortPackedMaxID take the linear
// LSD radix path — p stable counting passes, no comparator — and anything
// larger falls back to a comparison sort on slice views.
func (k *kernel) sortPacked(flat []V, p, count int) {
	if int(k.maxID) >= sortPackedMaxID || count > 1<<30 {
		views := make([]Clique, count)
		for i := range views {
			views[i] = Clique(flat[i*p : (i+1)*p])
		}
		slices.SortFunc(views, cmpClique)
		sorted := make([]V, len(flat))
		for i, v := range views {
			copy(sorted[i*p:], v)
		}
		copy(flat, sorted)
		return
	}
	tmp := make([]V, len(flat))
	cnt := make([]int32, int(k.maxID)+2)
	src, dst := flat, tmp
	for d := p - 1; d >= 0; d-- {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := 0; i < count; i++ {
			cnt[src[i*p+d]]++
		}
		sum := int32(0)
		for i := range cnt {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for i := 0; i < count; i++ {
			v := src[i*p+d]
			pos := cnt[v]
			cnt[v]++
			copy(dst[int(pos)*p:int(pos)*p+p], src[i*p:i*p+p])
		}
		src, dst = dst, src
	}
	if &src[0] != &flat[0] {
		copy(flat, src)
	}
}

// cmpClique orders cliques lexicographically (shorter prefixes first) for
// slices.SortFunc and the set/diff helpers.
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
