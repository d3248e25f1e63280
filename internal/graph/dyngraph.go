package graph

// Dynamic graphs: a mutable edge set with an incremental clique-delta
// engine. DynGraph keeps the p-clique listing of an evolving graph exact
// under edge insertions and deletions without global re-listing: each
// batch is resolved to its effective edge delta, and the added/removed
// cliques are recovered by local re-enumeration around the touched edges —
// a clique gained (lost) by the batch must contain an inserted (deleted)
// edge, so intersecting the endpoints' sorted neighborhoods confines the
// search to the mutation frontier. Batches too large relative to the
// current edge count fall back to one full kernel rebuild (the same
// enumeration every static listing runs). See DESIGN.md §9.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// ErrBadMutation reports a mutation outside the graph's domain: an
// endpoint not in [0, N), a self-loop, or an unknown op. The serving layer
// maps it to a 4xx.
var ErrBadMutation = errors.New("graph: bad mutation")

// MutOp is a mutation kind.
type MutOp uint8

const (
	// MutAdd inserts an edge (a no-op if present).
	MutAdd MutOp = iota
	// MutDel removes an edge (a no-op if absent).
	MutDel
)

func (op MutOp) String() string {
	switch op {
	case MutAdd:
		return "add"
	case MutDel:
		return "del"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// Mutation is one edge-level change. Within a batch, mutations apply in
// order, so the last op on an edge wins; the batch's effect is the
// difference between the final and initial edge sets.
type Mutation struct {
	Op   MutOp
	Edge Edge
}

// CliqueDelta is the exact clique-set change of one tracked size p under a
// batch: Added lists the p-cliques present after but not before, Removed
// the reverse, both sorted lexicographically. On the rebuild fallback the
// slices are nil — the whole listing was recomputed, not diffed — and the
// enclosing Delta carries Rebuilt.
type CliqueDelta struct {
	P              int
	Added, Removed []Clique
}

// Delta is the effect of one ApplyBatch: the effective edge changes
// (canonical, sorted), the touched-vertex cover (every clique the batch
// added or removed contains at least one of these vertices), whether the
// rebuild fallback ran, and per tracked p the exact clique delta.
type Delta struct {
	AddedEdges   []Edge
	RemovedEdges []Edge
	// Touched is the sorted set of endpoints of the effective edges; empty
	// means the batch was a no-op.
	Touched []V
	// Rebuilt reports that the batch exceeded the density threshold and the
	// tracked listings were recomputed from scratch instead of patched.
	Rebuilt bool
	// Cliques has one entry per tracked p, ascending.
	Cliques []CliqueDelta
}

// Effective returns the number of effective edge changes.
func (d *Delta) Effective() int { return len(d.AddedEdges) + len(d.RemovedEdges) }

// DynConfig tunes the incremental engine. The zero value takes the
// documented defaults.
type DynConfig struct {
	// RebuildFraction is the density threshold: a batch whose effective
	// edge-change count exceeds RebuildFraction·M (and RebuildMinBatch)
	// recomputes the tracked listings with one kernel rebuild instead of
	// patching around the frontier. Default DefaultRebuildFraction;
	// negative disables the fallback entirely.
	RebuildFraction float64
	// RebuildMinBatch is the absolute floor below which a batch is always
	// applied incrementally, whatever the fraction says — tiny graphs
	// otherwise rebuild on every mutation. Default DefaultRebuildMinBatch.
	RebuildMinBatch int
}

// Defaults for DynConfig; exported so the workload generator can build
// schedules that deliberately cross the threshold.
const (
	DefaultRebuildFraction = 0.10
	DefaultRebuildMinBatch = 32
)

func (c DynConfig) withDefaults() DynConfig {
	if c.RebuildFraction == 0 {
		c.RebuildFraction = DefaultRebuildFraction
	}
	if c.RebuildMinBatch == 0 {
		c.RebuildMinBatch = DefaultRebuildMinBatch
	}
	return c
}

// DynStats counts the engine's decisions.
type DynStats struct {
	// Batches is the number of ApplyBatch calls that changed the graph.
	Batches int64
	// Incremental and Rebuilds split Batches by how the tracked listings
	// were maintained. Batches with nothing tracked count as Incremental.
	Incremental, Rebuilds int64
	// AddedEdges and RemovedEdges total the effective edge changes.
	AddedEdges, RemovedEdges int64
}

// cliqueTracker is the maintained listing of one clique size: its
// cliques packed with stride p in lexicographic order, each once.
type cliqueTracker struct {
	p    int
	rows []V
}

// newTracker lists g's p-cliques, p ≥ 2, on its kernel.
func newTracker(g *Graph, p int) *cliqueTracker {
	bag := NewCliqueBag(p)
	g.kernel().collect(bag, 0)
	return &cliqueTracker{p: p, rows: bag.sorted()}
}

// DynGraph is a mutable simple graph over a fixed vertex set [0, N) with
// optional incremental p-clique maintenance. It is safe for concurrent
// use: mutations serialize, reads run under a shared lock. The maintained
// listing is byte-deterministic — Cliques(p) always equals the static
// ListCliques(p) of an equal graph, whatever mutation history produced it.
type DynGraph struct {
	mu  sync.RWMutex
	n   int
	m   int
	adj [][]V
	cfg DynConfig

	tracked []*cliqueTracker // ascending p
	stats   DynStats

	// commitHook, when set, observes each effective batch just before the
	// adjacency mutates; a hook error aborts the batch untouched. The
	// durable store logs batches to its WAL through this.
	commitHook func([]Mutation) error

	// snap caches the immutable snapshot between mutations.
	snap *Graph
}

// NewDynGraph wraps a copy of g (g itself is never modified) and begins
// tracking the given clique sizes, paying one full listing per size. Sizes
// below 2 or duplicated are ignored.
func NewDynGraph(g *Graph, cfg DynConfig, ps ...int) *DynGraph {
	d := &DynGraph{n: g.n, m: g.m, adj: make([][]V, g.n), cfg: cfg.withDefaults()}
	for v := range d.adj {
		d.adj[v] = slices.Clone(g.adj[v])
	}
	d.snap = g
	ps = slices.Clone(ps)
	slices.Sort(ps)
	for _, p := range slices.Compact(ps) {
		if p < 2 {
			continue
		}
		d.tracked = append(d.tracked, newTracker(g, p))
	}
	return d
}

// N returns the (fixed) vertex count.
func (d *DynGraph) N() int { return d.n }

// M returns the current edge count.
func (d *DynGraph) M() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.m
}

// Tracked returns the tracked clique sizes, ascending.
func (d *DynGraph) Tracked() []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]int, len(d.tracked))
	for i, tr := range d.tracked {
		out[i] = tr.p
	}
	return out
}

// Stats returns a snapshot of the engine counters.
func (d *DynGraph) Stats() DynStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// HasEdge reports whether {u,v} is currently an edge.
func (d *DynGraph) HasEdge(u, v V) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if u < 0 || int(u) >= d.n || v < 0 || int(v) >= d.n || u == v {
		return false
	}
	_, ok := slices.BinarySearch(d.adj[u], v)
	return ok
}

// Count returns the maintained p-clique count; ok is false when p is not
// tracked.
func (d *DynGraph) Count(p int) (n int64, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if tr := d.trackerLocked(p); tr != nil {
		return int64(len(tr.rows) / tr.p), true
	}
	return 0, false
}

// Cliques returns the maintained p-clique listing sorted lexicographically
// — byte-identical to ListCliques(p) on an equal static graph. ok is false
// when p is not tracked.
func (d *DynGraph) Cliques(p int) (cs []Clique, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if tr := d.trackerLocked(p); tr != nil {
		return cliquesOf(slices.Clone(tr.rows), tr.p), true
	}
	return nil, false
}

func (d *DynGraph) trackerLocked(p int) *cliqueTracker {
	for _, tr := range d.tracked {
		if tr.p == p {
			return tr
		}
	}
	return nil
}

// Track adds p to the tracked sizes, paying one full listing of the
// current graph; tracking an already-tracked or p < 2 size is a no-op.
func (d *DynGraph) Track(p int) {
	if p < 2 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.trackerLocked(p) != nil {
		return
	}
	d.tracked = append(d.tracked, newTracker(d.snapshotLocked(), p))
	sort.Slice(d.tracked, func(i, j int) bool { return d.tracked[i].p < d.tracked[j].p })
}

// Snapshot returns an immutable Graph equal to the current state. The
// snapshot is cached between mutations, so repeated calls are free; the
// returned graph shares nothing mutable with the DynGraph.
func (d *DynGraph) Snapshot() *Graph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *DynGraph) snapshotLocked() *Graph {
	if d.snap == nil {
		adj := make([][]V, d.n)
		for v := range adj {
			adj[v] = slices.Clone(d.adj[v])
		}
		d.snap = &Graph{n: d.n, m: d.m, adj: adj}
	}
	return d.snap
}

// SetCommitHook installs (or, with nil, removes) the commit hook:
// ApplyBatch invokes it with each batch's effective mutations after
// validation but before the adjacency changes, and a hook error aborts
// the batch untouched. No-op batches never reach the hook.
func (d *DynGraph) SetCommitHook(h func([]Mutation) error) {
	d.mu.Lock()
	d.commitHook = h
	d.mu.Unlock()
}

// AddEdge is ApplyBatch of one insertion.
func (d *DynGraph) AddEdge(u, v V) (*Delta, error) {
	return d.ApplyBatch([]Mutation{{Op: MutAdd, Edge: Edge{U: u, V: v}}})
}

// RemoveEdge is ApplyBatch of one deletion.
func (d *DynGraph) RemoveEdge(u, v V) (*Delta, error) {
	return d.ApplyBatch([]Mutation{{Op: MutDel, Edge: Edge{U: u, V: v}}})
}

// ApplyBatch applies the mutations in order and returns the batch's exact
// effect. The whole batch validates before anything changes: one bad
// mutation rejects the batch with ErrBadMutation and the graph is
// untouched. Redundant mutations (adding a present edge, deleting an
// absent one) are legal no-ops, so the effective delta — and therefore the
// clique delta, the Touched cover and the stats — depend only on the
// initial and final edge sets, never on how the batch spelled them.
func (d *DynGraph) ApplyBatch(muts []Mutation) (*Delta, error) {
	for _, mu := range muts {
		e := mu.Edge
		if mu.Op != MutAdd && mu.Op != MutDel {
			return nil, fmt.Errorf("%w: unknown op %d", ErrBadMutation, mu.Op)
		}
		if e.U < 0 || int(e.U) >= d.n || e.V < 0 || int(e.V) >= d.n {
			return nil, fmt.Errorf("%w: edge %v out of range [0,%d)", ErrBadMutation, e, d.n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: self-loop on %d", ErrBadMutation, e.U)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	// Resolve the batch to its effective edge delta: last op per edge
	// wins, then compare against the current presence.
	final := make(map[uint64]bool, len(muts))
	for _, mu := range muts {
		final[mu.Edge.Canon().Pack()] = mu.Op == MutAdd
	}
	var ins, del []uint64
	for k, want := range final {
		e := UnpackEdge(k)
		_, has := slices.BinarySearch(d.adj[e.U], e.V)
		switch {
		case want && !has:
			ins = append(ins, k)
		case !want && has:
			del = append(del, k)
		}
	}
	slices.Sort(ins)
	slices.Sort(del)

	delta := &Delta{
		AddedEdges:   edgesFromKeys(ins),
		RemovedEdges: edgesFromKeys(del),
	}
	if len(ins) == 0 && len(del) == 0 {
		for _, tr := range d.tracked {
			delta.Cliques = append(delta.Cliques, CliqueDelta{P: tr.p, Added: []Clique{}, Removed: []Clique{}})
		}
		return delta, nil
	}
	delta.Touched = touchedCover(delta.AddedEdges, delta.RemovedEdges)

	// Commit barrier: hand the effective batch (canonical, deduplicated,
	// deterministic order — deletions then insertions, each sorted) to the
	// hook before anything mutates. If it fails — a WAL append that could
	// not be made durable — the batch is rejected with the graph untouched,
	// so the log never lags the served state.
	if d.commitHook != nil {
		eff := make([]Mutation, 0, len(del)+len(ins))
		for _, k := range del {
			eff = append(eff, Mutation{Op: MutDel, Edge: UnpackEdge(k)})
		}
		for _, k := range ins {
			eff = append(eff, Mutation{Op: MutAdd, Edge: UnpackEdge(k)})
		}
		if err := d.commitHook(eff); err != nil {
			return nil, fmt.Errorf("graph: commit hook rejected batch: %w", err)
		}
	}

	effective := len(ins) + len(del)
	rebuild := d.cfg.RebuildFraction >= 0 &&
		effective > d.cfg.RebuildMinBatch &&
		float64(effective) > d.cfg.RebuildFraction*float64(max(d.m, 1))

	// Phase 1 (incremental only): cliques of the OLD graph through each
	// deleted edge — these are exactly the cliques the batch removes. The
	// edge loop is outermost so the endpoints' common neighborhood is
	// intersected once and shared across every tracked clique size.
	var removed []*CliqueBag
	if !rebuild {
		removed = d.frontierCliques(delta.RemovedEdges)
	}

	// Phase 2: mutate the adjacency.
	for _, k := range del {
		e := UnpackEdge(k)
		d.adj[e.U] = removeSorted(d.adj[e.U], e.V)
		d.adj[e.V] = removeSorted(d.adj[e.V], e.U)
	}
	for _, k := range ins {
		e := UnpackEdge(k)
		d.adj[e.U] = insertSorted(d.adj[e.U], e.V)
		d.adj[e.V] = insertSorted(d.adj[e.V], e.U)
	}
	d.m += len(ins) - len(del)
	d.snap = nil
	d.stats.Batches++
	d.stats.AddedEdges += int64(len(ins))
	d.stats.RemovedEdges += int64(len(del))

	if rebuild {
		d.stats.Rebuilds++
		delta.Rebuilt = true
		snap := d.snapshotLocked()
		for i, tr := range d.tracked {
			d.tracked[i] = newTracker(snap, tr.p)
			delta.Cliques = append(delta.Cliques, CliqueDelta{P: tr.p})
		}
		return delta, nil
	}
	d.stats.Incremental++

	// Phase 3: cliques of the NEW graph through each inserted edge — these
	// are exactly the cliques the batch adds. Merge both into the tracked
	// listings.
	added := d.frontierCliques(delta.AddedEdges)
	for i, tr := range d.tracked {
		gone, gained := removed[i].sorted(), added[i].sorted()
		tr.rows = patchRows(tr.rows, gone, gained, tr.p)
		delta.Cliques = append(delta.Cliques, CliqueDelta{
			P:       tr.p,
			Added:   cliquesOf(gained, tr.p),
			Removed: cliquesOf(gone, tr.p),
		})
	}
	return delta, nil
}

// frontierCliques enumerates, per tracked clique size, the cliques of the
// current adjacency passing through each of the given edges into a bag
// (a clique spanning several frontier edges lands more than once; the
// bag's sort drops the repeats). Each edge's common neighborhood is
// intersected once and reused for every size.
func (d *DynGraph) frontierCliques(edges []Edge) []*CliqueBag {
	bags := make([]*CliqueBag, len(d.tracked))
	for i, tr := range d.tracked {
		bags[i] = NewCliqueBag(tr.p)
	}
	if len(d.tracked) == 0 {
		return bags
	}
	for _, e := range edges {
		common := IntersectSorted(d.adj[e.U], d.adj[e.V])
		for i, tr := range d.tracked {
			visitCliquesThroughEdgeCommon(d.adj, e, common, tr.p, func(c Clique) bool {
				bags[i].Add(c)
				return true
			})
		}
	}
	return bags
}

// patchRows returns (rows − gone) ∪ gained in a fresh array. All three are
// stride-p rows in lexicographic order, each row once, and gained shares
// no row with rows − gone: a clique the batch adds contains an inserted
// edge, so the old graph did not have it. Kept rows are copied in runs.
func patchRows(rows, gone, gained []V, p int) []V {
	out := make([]V, 0, max(len(rows)-len(gone), 0)+len(gained))
	start := 0 // rows[start:i] are kept and not yet copied
	for i := 0; i < len(rows); i += p {
		r := Clique(rows[i : i+p])
		for len(gained) > 0 && cmpClique(Clique(gained[:p]), r) < 0 {
			out = append(append(out, rows[start:i]...), gained[:p]...)
			start, gained = i, gained[p:]
		}
		for len(gone) > 0 && cmpClique(Clique(gone[:p]), r) < 0 {
			gone = gone[p:]
		}
		if len(gone) > 0 && cmpClique(Clique(gone[:p]), r) == 0 {
			out = append(out, rows[start:i]...)
			start, gone = i+p, gone[p:]
		}
	}
	return append(append(out, rows[start:]...), gained...)
}

func edgesFromKeys(keys []uint64) []Edge {
	out := make([]Edge, len(keys))
	for i, k := range keys {
		out[i] = UnpackEdge(k)
	}
	return out
}

// touchedCover returns the sorted unique endpoints of the effective edges.
func touchedCover(added, removed []Edge) []V {
	vs := make([]V, 0, 2*(len(added)+len(removed)))
	for _, e := range added {
		vs = append(vs, e.U, e.V)
	}
	for _, e := range removed {
		vs = append(vs, e.U, e.V)
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

func insertSorted(s []V, v V) []V {
	i, ok := slices.BinarySearch(s, v)
	if ok {
		return s
	}
	return slices.Insert(s, i, v)
}

func removeSorted(s []V, v V) []V {
	i, ok := slices.BinarySearch(s, v)
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// visitCliquesThroughEdge enumerates every p-clique of the graph described
// by adj (sorted rows) that contains the edge {e.U, e.V}, yielding each
// exactly once with vertices sorted ascending (the slice is reused between
// calls). The edge itself must be present. Enumeration confines itself to
// the common neighborhood of the endpoints: candidates are intersected
// against each chosen vertex's sorted row, the same merge the enumeration
// kernel runs, so cost is O(d·(p-2)·|N(u)∩N(v)|) per emitted clique branch
// — independent of the graph's total clique population. Returns false iff
// yield aborted.
func visitCliquesThroughEdge(adj [][]V, e Edge, p int, yield func(Clique) bool) bool {
	if p < 2 {
		return true
	}
	if p == 2 {
		return visitCliquesThroughEdgeCommon(adj, e, nil, p, yield)
	}
	return visitCliquesThroughEdgeCommon(adj, e, IntersectSorted(adj[e.U], adj[e.V]), p, yield)
}

// visitCliquesThroughEdgeCommon is visitCliquesThroughEdge with the
// endpoints' common neighborhood precomputed, so callers enumerating
// several clique sizes through one edge intersect only once.
func visitCliquesThroughEdgeCommon(adj [][]V, e Edge, common []V, p int, yield func(Clique) bool) bool {
	if p < 2 {
		return true
	}
	scratch := make(Clique, p)
	if p == 2 {
		scratch[0], scratch[1] = e.U, e.V
		sortV(scratch)
		return yield(scratch)
	}
	need := p - 2
	if len(common) < need {
		return true
	}
	chosen := make([]V, 0, need)
	// bufs[d] backs the candidate set after the d-th choice.
	bufs := make([][]V, need)
	for i := range bufs {
		bufs[i] = make([]V, 0, len(common))
	}
	var rec func(cands []V, depth int) bool
	rec = func(cands []V, depth int) bool {
		if depth == need {
			scratch = scratch[:0]
			scratch = append(scratch, e.U, e.V)
			scratch = append(scratch, chosen...)
			sortV(scratch)
			return yield(scratch)
		}
		for i, w := range cands {
			if len(cands)-i < need-depth {
				return true
			}
			next := intersectInto(bufs[depth][:0], cands[i+1:], adj[w])
			if len(next) < need-depth-1 {
				continue
			}
			chosen = append(chosen, w)
			ok := rec(next, depth+1)
			chosen = chosen[:len(chosen)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(common, 0)
}

// intersectInto writes a ∩ b into dst (both ascending) and returns it.
func intersectInto(dst, a, b []V) []V {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// VisitCliquesThroughEdge enumerates every p-clique of g containing the
// edge e, which must be present in g; the yielded slice is reused between
// calls. It returns false iff yield aborted. This is the frontier
// re-enumeration primitive behind the incremental clique-delta engine and
// the Session's selective cache invalidation.
func (g *Graph) VisitCliquesThroughEdge(e Edge, p int, yield func(Clique) bool) bool {
	e = e.Canon()
	if e.U < 0 || int(e.V) >= g.n || e.U == e.V || !g.HasEdge(e.U, e.V) {
		return true
	}
	return visitCliquesThroughEdge(g.adj, e, p, yield)
}

// HasCliqueThroughEdge reports whether g has at least one p-clique
// containing the edge e — the existence short-circuit the serving layer
// uses to decide whether a cached p-listing survives a mutation batch.
func (g *Graph) HasCliqueThroughEdge(e Edge, p int) bool {
	found := false
	g.VisitCliquesThroughEdge(e, p, func(Clique) bool {
		found = true
		return false
	})
	return found
}
