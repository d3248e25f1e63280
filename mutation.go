package kplist

// The dynamic-graph surface: edge mutations against a live Session. Apply
// threads a mutation batch through the incremental clique-delta engine
// (internal/graph.DynGraph, DESIGN.md §9) and then invalidates only the
// cached results whose listings the batch actually changed — decided per
// cached clique size by re-enumerating locally around the touched edges,
// never by flushing the whole cache.

import (
	"context"

	"kplist/internal/graph"
)

// Mutation is one edge-level change; see AddEdgeMutation/DelEdgeMutation.
// Within a batch, mutations apply in order and the last op per edge wins.
type Mutation = graph.Mutation

// MutOp is a mutation kind.
type MutOp = graph.MutOp

// Mutation kinds.
const (
	// MutAdd inserts an edge (a no-op if present).
	MutAdd = graph.MutAdd
	// MutDel removes an edge (a no-op if absent).
	MutDel = graph.MutDel
)

// AddEdgeMutation builds an insert mutation for {u, v}.
func AddEdgeMutation(u, v V) Mutation {
	return Mutation{Op: MutAdd, Edge: Edge{U: u, V: v}.Canon()}
}

// DelEdgeMutation builds a delete mutation for {u, v}.
func DelEdgeMutation(u, v V) Mutation {
	return Mutation{Op: MutDel, Edge: Edge{U: u, V: v}.Canon()}
}

// ApplyResult describes the effect of one Session.Apply.
type ApplyResult struct {
	// AddedEdges and RemovedEdges count the effective edge changes: a
	// batch that inserts a present edge or deletes an absent one counts
	// nothing, so the numbers depend only on the initial and final edge
	// sets.
	AddedEdges   int `json:"addedEdges"`
	RemovedEdges int `json:"removedEdges"`
	// Touched is the sorted vertex cover of the effective edges — every
	// clique the batch created or destroyed contains one of these.
	Touched []V `json:"touched,omitempty"`
	// Rebuilt reports that the batch exceeded the incremental engine's
	// density threshold and invalidation fell back to a full cache flush.
	Rebuilt bool `json:"rebuilt"`
	// InvalidatedResults and InvalidatedTruths count the cached query
	// results and ground-truth memos the batch dropped; cached listings
	// the batch provably did not change are retained (their round bills
	// describe the pre-apply prefix — exact listings, historical costs).
	// Visit-order ground-truth memos are dropped by every effective
	// batch, since a batch can reorder a listing it does not change.
	InvalidatedResults int `json:"invalidatedResults"`
	InvalidatedTruths  int `json:"invalidatedTruths"`
	// N and M describe the post-apply graph; Graph is its immutable
	// snapshot (the value Session.Graph now returns).
	N     int    `json:"n"`
	M     int    `json:"m"`
	Graph *Graph `json:"-"`
}

// SetMutationHook installs (or, with nil, removes) a commit hook on the
// session's mutation path: Apply hands it each batch's effective
// mutations (canonical, deduplicated, deletions before insertions) after
// validation and before anything changes. A hook error aborts the Apply
// with the graph untouched — this is the durability barrier kplistd uses
// to make the write-ahead log never lag the served state. No-op batches
// never reach the hook.
func (s *Session) SetMutationHook(h func([]Mutation) error) {
	s.applyMu.Lock()
	s.mutHook = h
	s.applyMu.Unlock()
}

// Apply applies a batch of edge mutations to the session's graph and
// returns what changed. The whole batch validates first — one bad
// mutation (endpoint outside [0, N), self-loop, unknown op) rejects it
// with ErrInvalidMutation and nothing changes. Mutators serialize;
// queries keep serving concurrently, each against exactly one linearized
// prefix of the mutation history: a query in flight when Apply lands
// answers for the pre-apply graph, queries arriving after Apply returns
// see the post-apply graph.
//
// Cache invalidation is selective. For each cached clique size p the
// engine checks whether any removed edge supported a p-clique (in the old
// graph) or any inserted edge completes one (in the new graph) — a local
// frontier enumeration, independent of the total clique population — and
// only affected entries are dropped. Visit-order ground-truth memos are
// the exception: every effective batch drops them (see
// ApplyResult.InvalidatedTruths). Batches past the density threshold skip
// the per-size analysis and flush everything (ApplyResult.Rebuilt).
func (s *Session) Apply(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	old := s.state.Load()
	if s.dyn == nil {
		s.dyn = graph.NewDynGraph(old.g, graph.DynConfig{})
	}
	s.dyn.SetCommitHook(s.mutHook)
	delta, err := s.dyn.ApplyBatch(muts)
	if err != nil {
		return nil, err
	}
	res := &ApplyResult{
		AddedEdges:   len(delta.AddedEdges),
		RemovedEdges: len(delta.RemovedEdges),
		Touched:      delta.Touched,
		Rebuilt:      delta.Rebuilt,
	}
	if delta.Effective() == 0 {
		res.Graph, res.N, res.M = old.g, old.g.N(), old.g.M()
		return res, nil
	}
	newG := s.dyn.Snapshot()
	newG.Degeneracy() // peel the new snapshot before it commits, as NewSession does
	next := &sessionState{g: newG}

	// Decide, per clique size currently cached or memoized, whether the
	// batch changed that listing. The existence checks enumerate around
	// the frontier only, and run outside every lock.
	ps := make(map[int]bool)
	s.mu.Lock()
	for key := range s.entries {
		ps[key.P] = true
	}
	s.mu.Unlock()
	s.gtMu.Lock()
	for key := range s.gt {
		if !key.visit {
			ps[key.p] = true
		}
	}
	s.gtMu.Unlock()
	affected := make(map[int]bool, len(ps))
	for p := range ps {
		affected[p] = listingAffected(old.g, newG, delta, p)
	}

	// Swap the state and drop the affected entries in one critical
	// section: queries observe either (old state, entry intact) or (new
	// state, entry gone), never a stale entry after the swap. Entries for
	// sizes cached after the analysis snapshot are dropped conservatively.
	s.mu.Lock()
	s.state.Store(next)
	for key := range s.entries {
		if aff, known := affected[key.P]; !known || aff {
			delete(s.entries, key)
			res.InvalidatedResults++
		}
	}
	s.stats.Unique = len(s.entries)
	s.gtMu.Lock()
	for key, e := range s.gt {
		if aff, known := affected[key.p]; key.visit || !known || aff {
			// Visit entries always go: visit order follows the
			// snapshot's degeneracy ranking, which a batch can change
			// while leaving the listing itself alone.
			delete(s.gt, key)
			res.InvalidatedTruths++
		} else {
			// The p-listing provably did not change, so the encoded lex
			// memo stays valid for the new snapshot — re-key it (the compute goroutine never
			// touches e.g, and e.g is only read under gtMu) so post-apply
			// lookups keep hitting.
			e.g = newG
		}
	}
	s.gtMu.Unlock()
	s.mu.Unlock()

	// Fold the batch into the maintained clique sketches: pure insertions
	// inscribe incrementally, deletions mark stale (estimate.go).
	s.maintainSketches(old.g, newG, delta)

	res.Graph, res.N, res.M = newG, newG.N(), newG.M()
	return res, nil
}

// listingAffected reports whether the batch described by delta changes
// the p-clique listing: exactly when some removed edge lay in a p-clique
// of the old graph or some inserted edge lies in one of the new graph.
func listingAffected(oldG, newG *Graph, delta *graph.Delta, p int) bool {
	if delta.Rebuilt {
		return true
	}
	switch {
	case p <= 1:
		return false // vertex listings don't see edges
	case p == 2:
		return delta.Effective() > 0
	}
	for _, e := range delta.RemovedEdges {
		if oldG.HasCliqueThroughEdge(e, p) {
			return true
		}
	}
	for _, e := range delta.AddedEdges {
		if newG.HasCliqueThroughEdge(e, p) {
			return true
		}
	}
	return false
}
