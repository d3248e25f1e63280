package kplist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kplist/internal/graph"
)

// Algorithm selects which listing engine a Session query runs.
type Algorithm string

const (
	// AlgoCONGEST is the Theorem 1.1 CONGEST pipeline (p ≥ 4).
	AlgoCONGEST Algorithm = "congest"
	// AlgoFastK4 is the Theorem 1.2 Õ(n^{2/3}) K4 variant (p must be 4).
	AlgoFastK4 Algorithm = "fastk4"
	// AlgoCongestedClique is the Theorem 1.3 sparsity-aware lister (p ≥ 3).
	AlgoCongestedClique Algorithm = "congested-clique"
	// AlgoBroadcast is the trivial Θ̃(n) baseline (Remark 2.6).
	AlgoBroadcast Algorithm = "broadcast"
)

// Algorithms returns the engine names a Query.Algo accepts, in stable
// order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoCONGEST, AlgoFastK4, AlgoCongestedClique, AlgoBroadcast}
}

// Query is one listing request against a Session's graph. The zero value
// of Algo is normalized to AlgoCongestedClique for p = 3 and AlgoCONGEST
// otherwise; the normalized Query is the cache key, so requests that
// normalize equal share one execution.
type Query struct {
	// P is the clique size to list.
	P int
	// Algo selects the engine; see the normalization rule above.
	Algo Algorithm
	// Seed, PaperCosts and FinalExponent mirror Options and are part of
	// the query identity.
	Seed          int64
	PaperCosts    bool
	FinalExponent float64
	// Workers mirrors Options.Workers. It is a host-parallelism hint only —
	// results and round bills are identical for every value — so it is
	// excluded from the cache key: queries differing only in Workers
	// coalesce, executing with the first arrival's hint.
	Workers int
}

// SessionConfig configures NewSession.
type SessionConfig struct {
	// MaxConcurrent bounds how many queries execute simultaneously; further
	// queries wait for a slot. 0 means GOMAXPROCS.
	MaxConcurrent int
	// Verify cross-checks every fresh result against the session's shared
	// sequential ground truth before caching it.
	Verify bool
	// PruneByDegeneracy answers queries with p > degeneracy+1 straight from
	// the precomputed degree order: such graphs cannot contain a Kp, so the
	// result is an empty listing with a zero round bill (the preprocessing
	// phase already paid for the peel). Off by default because the skipped
	// bill makes round measurements incomparable across p.
	PruneByDegeneracy bool
	// MaxCachedResults bounds the keyed result cache: beyond it the
	// oldest completed results are evicted (insertion order; in-flight
	// executions are never evicted). 0 means the default 256; negative
	// means unbounded. The bound is what keeps a session serving
	// untrusted queries (distinct seeds are distinct cache keys) at
	// bounded memory.
	MaxCachedResults int
}

// SessionStats is a snapshot of a Session's serving counters.
type SessionStats struct {
	// Queries is the total number of Query/QueryBatch requests served.
	Queries int64
	// Hits are requests served a result from the cache or from a
	// coalesced in-flight execution; Misses are fresh executions. Pruned
	// counts degeneracy short-circuits (a subset of Misses). A request
	// that coalesces but comes back empty-handed (its own cancellation,
	// or the execution it joined failed) counts in neither, so
	// Hits+Misses ≤ Queries with the gap being the failures.
	Hits, Misses, Pruned int64
	// Cancelled counts requests that returned early on their context —
	// while waiting for a coalesced execution, waiting for a scheduler
	// slot, or mid-execution between engine rounds.
	Cancelled int64
	// Evicted counts completed results dropped by the MaxCachedResults
	// bound.
	Evicted int64
	// Unique is the number of distinct normalized queries currently cached
	// or in flight. Failed executions (including cancellations) are not
	// cached and the cache is bounded, so Unique can shrink.
	Unique int
	// PeakConcurrent is the highest number of simultaneously executing
	// queries observed (≤ MaxConcurrent).
	PeakConcurrent int
	// SketchBuilds counts from-scratch sketch inscriptions (first request
	// per key, and lazy rebuilds); SketchStaleRebuilds is the subset forced
	// by a deletion-staled sketch. SketchIncremental counts mutation
	// batches folded into maintained sketches in place; SketchStaleMarked
	// counts sketches a deletion or rebuild batch marked stale. See
	// estimate.go.
	SketchBuilds, SketchStaleRebuilds, SketchIncremental, SketchStaleMarked int64
}

// Session amortizes listing work across many queries on one graph: open it
// once, and it precomputes the shared artefacts (the degeneracy/degree
// order every pipeline starts from, the edge census) and then serves
// queries through a bounded scheduler with a keyed result cache. Repeated
// or concurrent identical queries execute once; the rest wait for slots so
// a burst of queries cannot oversubscribe the host. A Session is safe for
// concurrent use. This is the serving-shaped split of the paper's
// preprocessing vs listing phases (DESIGN.md §6).
type Session struct {
	cfg SessionConfig

	// state is the current immutable graph plus the artefacts derived from
	// it (the degeneracy peel). Queries snapshot it once at execution
	// start, so a concurrent Apply never tears a single query: every
	// response is computed against exactly one linearized mutation prefix.
	state atomic.Pointer[sessionState]

	sem chan struct{}

	mu      sync.Mutex
	entries map[Query]*sessionEntry
	// order tracks cache keys in insertion order for the
	// MaxCachedResults eviction walk; it may hold stale keys of failed
	// executions, compacted lazily.
	order  []Query
	stats  SessionStats
	active int
	closed bool

	// applyMu serializes mutators; dyn is the mutable-edge engine behind
	// Apply, created on first use; mutHook, when set, observes each
	// effective batch before it commits (all guarded by applyMu).
	applyMu sync.Mutex
	dyn     *graph.DynGraph
	mutHook func([]Mutation) error

	gtMu sync.Mutex
	gt   map[gtKey]*gtEntry

	// skMu guards the maintained clique sketches (estimate.go), keyed by
	// (p, precision, seed) and snapshot-pointer checked like gt.
	skMu     sync.Mutex
	sketches map[sketchKey]*sketchEntry
}

// sessionState is one immutable snapshot of the served graph.
type sessionState struct {
	g     *Graph
	degen *graph.DegeneracyResult
}

type sessionEntry struct {
	done chan struct{}
	res  *Result
	err  error
}

// gtKey names one memoized ground-truth listing: its clique size and
// its order.
type gtKey struct {
	p int
	// visit selects the kernel's enumeration order (VisitCliques); false
	// is lexicographic (ListCliques).
	visit bool
}

// gtEntry is the memoized ground truth of one clique size in one order,
// encoded once as NDJSON. The bytes are the only copy — about half the
// footprint of the []Clique they encode — and GroundTruth decodes a fresh
// slice for the callers that need one.
type gtEntry struct {
	done chan struct{}
	// g is the graph snapshot the listing was (or is being) computed
	// from: a lookup hits only on pointer match, so a memo from an older
	// mutation prefix is never served for a newer one and vice versa.
	g *Graph
	// lines holds a lex listing, one Clique.AppendLine per clique, sized
	// exactly, and count the number of its lines.
	lines []byte
	count int
	// chunks holds a visit listing in pieces of at most
	// graph.StreamBufferSize bytes, the unit a stream writes, each
	// allocated once at its full size.
	chunks [][]byte
	// over marks a visit listing past visitMemoCeiling: the entry holds
	// no bytes, and its snapshot's visit streams run the kernel instead.
	over bool
}

// noTruth is the shared empty listing of a clique size no Kp can have
// (p < 1 or p > degeneracy+1). Such sizes get no memo entry, so distinct
// p values cannot grow the memo.
var noTruth = &gtEntry{}

// visitMemoCeiling bounds the bytes one visit-order memo entry may hold.
// A listing past it is not memoized: its streams run the kernel through
// the constant-memory visitor, as every visit stream once did.
var visitMemoCeiling = 64 << 20

// NewSession opens a session on g, paying the shared preprocessing once:
// the degeneracy peel (degree order + coreness, the artefact every
// pipeline's orientation phase consumes) runs here, not per query.
func NewSession(g *Graph, cfg SessionConfig) *Session {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxCachedResults == 0 {
		cfg.MaxCachedResults = 256
	}
	s := &Session{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		entries:  make(map[Query]*sessionEntry),
		gt:       make(map[gtKey]*gtEntry),
		sketches: make(map[sketchKey]*sketchEntry),
	}
	s.state.Store(&sessionState{g: g, degen: g.Degeneracy()})
	return s
}

// Graph returns the session's current graph snapshot (the result of every
// Apply so far).
func (s *Session) Graph() *Graph { return s.state.Load().g }

// Degeneracy returns the precomputed degeneracy of the session's current
// graph; no Kp with p > Degeneracy()+1 exists.
func (s *Session) Degeneracy() int { return s.state.Load().degen.Degeneracy }

// normalize applies the Algo defaulting rule and validates the query.
// Domain violations wrap ErrInvalidQuery; unrecognized engines wrap
// ErrUnknownEngine.
func (s *Session) normalize(q Query) (Query, error) {
	if q.Algo == "" {
		if q.P == 3 {
			q.Algo = AlgoCongestedClique
		} else {
			q.Algo = AlgoCONGEST
		}
	}
	switch q.Algo {
	case AlgoCONGEST:
		if q.P < 4 {
			return q, fmt.Errorf("%w: %s requires p ≥ 4, got %d", ErrInvalidQuery, q.Algo, q.P)
		}
	case AlgoFastK4:
		if q.P != 4 {
			return q, fmt.Errorf("%w: %s requires p = 4, got %d", ErrInvalidQuery, q.Algo, q.P)
		}
	case AlgoCongestedClique, AlgoBroadcast:
		if q.P < 3 {
			return q, fmt.Errorf("%w: %s requires p ≥ 3, got %d", ErrInvalidQuery, q.Algo, q.P)
		}
	default:
		return q, fmt.Errorf("%w %q (known: %v)", ErrUnknownEngine, q.Algo, Algorithms())
	}
	return q, nil
}

// Query serves one listing request, returning the cached result when an
// identical (normalized) query has already run or is in flight. It is
// QueryContext with a background context.
func (s *Session) Query(q Query) (*Result, error) {
	return s.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: cancellation is honored while
// waiting for a coalesced execution, while queued for a scheduler slot,
// and between engine rounds once running, so a cancelled request stops
// burning CPU promptly and its scheduler slot frees. Only successful
// executions are cached — a failed or cancelled execution is forgotten, so
// the session stays fully reusable afterwards. A request that coalesced
// onto an execution cancelled by a *different* requester retries
// automatically while its own context is live, so one client's deadline
// never surfaces as another client's error.
func (s *Session) QueryContext(ctx context.Context, q Query) (*Result, error) {
	q, err := s.normalize(q)
	if err != nil {
		return nil, err
	}
	key := q
	key.Workers = 0 // not part of the query identity (see Query.Workers)
	counted := false
	for {
		res, err, retry := s.serveOnce(ctx, key, q, &counted)
		if retry {
			continue
		}
		return res, err
	}
}

// serveOnce runs one pass of the serve loop: join an existing entry or
// create and execute one. retry means the joined execution was cancelled
// by its own requester while this request is still live.
func (s *Session) serveOnce(ctx context.Context, key, q Query, counted *bool) (res *Result, err error, retry bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed, false
	}
	if !*counted {
		s.stats.Queries++
		*counted = true
	}
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		// A completed entry wins over an expired context (select between
		// two ready channels picks randomly): cached answers stay free.
		select {
		case <-e.done:
		case <-ctx.Done():
			select {
			case <-e.done:
			default:
				s.noteCancelled()
				return nil, ctx.Err(), false
			}
		}
		if e.err == nil {
			s.mu.Lock()
			s.stats.Hits++
			s.mu.Unlock()
			return e.res, nil, false
		}
		if isCtxErr(e.err) && ctx.Err() == nil {
			return nil, nil, true
		}
		return nil, e.err, false
	}
	e := &sessionEntry{done: make(chan struct{})}
	s.entries[key] = e
	s.order = append(s.order, key)
	s.stats.Misses++
	s.evictCacheOverflowLocked()
	s.stats.Unique = len(s.entries)
	// One state snapshot serves this whole execution: graph and degeneracy
	// always agree, even when an Apply lands mid-query (the result then
	// describes the pre-apply prefix, and Apply has already dropped this
	// entry from the cache if that listing changed).
	st := s.state.Load()
	pruned := s.cfg.PruneByDegeneracy && q.P > st.degen.Degeneracy+1
	if pruned {
		s.stats.Pruned++
	}
	s.mu.Unlock()

	if pruned {
		e.res, e.err = &Result{Cliques: []Clique{}}, nil
		close(e.done)
		return e.res, e.err, false
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finishEntry(key, e, nil, ctx.Err())
		return e.res, e.err, false
	}
	s.mu.Lock()
	s.active++
	if s.active > s.stats.PeakConcurrent {
		s.stats.PeakConcurrent = s.active
	}
	s.mu.Unlock()
	runRes, runErr := s.run(ctx, q, st)
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	<-s.sem
	s.finishEntry(key, e, runRes, runErr)
	return e.res, e.err, false
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finishEntry publishes an execution outcome to every coalesced waiter.
// Failures (including cancellations) are evicted from the cache before
// publication so the next identical query re-executes. The eviction is
// conditional on the map still holding this entry: an Apply may have
// already dropped it (and a fresh execution may have replaced it), and
// that replacement must never be clobbered.
func (s *Session) finishEntry(key Query, e *sessionEntry, res *Result, err error) {
	e.res, e.err = res, err
	if err != nil {
		s.mu.Lock()
		if s.entries[key] == e {
			delete(s.entries, key)
		}
		s.stats.Unique = len(s.entries)
		if isCtxErr(err) {
			s.stats.Cancelled++
		}
		s.mu.Unlock()
	}
	close(e.done)
}

// evictCacheOverflowLocked enforces MaxCachedResults: walk the insertion
// order, dropping stale keys (failed executions already removed from the
// map) and evicting the oldest completed results until the cache fits.
// In-flight executions are never evicted. The walk also runs when the
// order slice has accumulated far more stale keys than live entries, so
// repeated failures cannot grow it unboundedly.
func (s *Session) evictCacheOverflowLocked() {
	limit := s.cfg.MaxCachedResults
	over := limit >= 0 && len(s.entries) > limit
	if !over && len(s.order) <= 2*len(s.entries)+64 {
		return
	}
	keep := s.order[:0]
	for _, key := range s.order {
		e, ok := s.entries[key]
		if !ok {
			continue // stale: the execution failed and was removed
		}
		if limit >= 0 && len(s.entries) > limit {
			select {
			case <-e.done:
				delete(s.entries, key)
				s.stats.Evicted++
				continue
			default: // in flight — keep
			}
		}
		keep = append(keep, key)
	}
	s.order = keep
}

func (s *Session) noteCancelled() {
	s.mu.Lock()
	s.stats.Cancelled++
	s.mu.Unlock()
}

func (s *Session) run(ctx context.Context, q Query, st *sessionState) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := Options{
		Seed:          q.Seed,
		Workers:       q.Workers,
		PaperCosts:    q.PaperCosts,
		FinalExponent: q.FinalExponent,
	}
	var (
		res *Result
		err error
	)
	switch q.Algo {
	case AlgoCONGEST:
		res, err = listCONGESTContext(ctx, st.g, q.P, opt)
	case AlgoFastK4:
		opt.FastK4 = true
		res, err = listCONGESTContext(ctx, st.g, q.P, opt)
	case AlgoCongestedClique:
		res, err = listCongestedCliqueContext(ctx, st.g, q.P, opt)
	case AlgoBroadcast:
		res, err = listBroadcastContext(ctx, st.g, q.P, opt)
	}
	if err != nil {
		return nil, err
	}
	if s.cfg.Verify {
		// Verification compares against the same snapshot the engine ran
		// on; the memo is keyed by that snapshot, so a concurrent Apply
		// can never substitute a later mutation prefix.
		// The result must be the lexicographic listing itself, element
		// by element: sorted and duplicate-free, not merely the same set.
		want := s.groundTruthFor(st, q.P)
		if !slices.EqualFunc(res.Cliques, want, slices.Equal) {
			return nil, fmt.Errorf("kplist: session verify failed for %+v: got %d cliques, want %d",
				q, len(res.Cliques), len(want))
		}
	}
	return res, nil
}

// GroundTruth returns the sequential enumeration of Kp for the session's
// current graph, in lexicographic order. The listing is computed once per
// p and memoized as NDJSON bytes shared by every caller (see
// GroundTruthLines); each call decodes a fresh slice the caller owns.
// Concurrent first calls for the same p coalesce onto one enumeration;
// distinct p values enumerate concurrently (the lock guards only the map).
func (s *Session) GroundTruth(p int) []Clique {
	return s.groundTruthFor(s.state.Load(), p)
}

// GroundTruthLines returns the session's current Kp listing as NDJSON —
// one line per clique, byte for byte what Clique.AppendLine writes, in
// lexicographic order — restricted to the cliques whose smallest vertex
// lies in [lo, hi); lo = 0, hi = N() keeps every clique. The listing is
// encoded once per (p, graph snapshot) and shared: callers must not
// modify the bytes. A range's lines are contiguous in lex order, so they
// are a sub-slice found by binary search, with no copy.
func (s *Session) GroundTruthLines(p, lo, hi int) []byte {
	if hi <= lo {
		return nil
	}
	st := s.state.Load()
	lines := s.truthFor(st, gtKey{p: p}).lines
	if hi < st.g.N() {
		lines = lines[:rootOffset(lines, hi)]
	}
	if lo > 0 {
		lines = lines[rootOffset(lines, lo):]
	}
	return lines
}

// rootOffset returns the offset of the first line of the lex listing
// lines whose first vertex is at least v, or len(lines). It
// binary-searches the bytes: each probe backs up to the start of its
// line and reads the line's first vertex.
func rootOffset(lines []byte, v int) int {
	return sort.Search(len(lines), func(i int) bool {
		first := 0
		for _, b := range lines[bytes.LastIndexByte(lines[:i], '\n')+2:] { // past the '['
			if b < '0' || b > '9' {
				break
			}
			first = first*10 + int(b-'0')
		}
		return first >= v
	})
}

// GroundTruthChunks returns the session's current Kp listing in the
// kernel's visit order — byte for byte the encoding of what
// VisitGroundTruth yields — in pieces of at most graph.StreamBufferSize
// bytes (more only for a single longer line) that concatenate to the
// whole listing. It is encoded once per (p, graph snapshot) and shared:
// callers must not modify the chunks. ok is false when the listing passes
// the memo's byte ceiling; the caller then streams VisitGroundTruth,
// which holds nothing.
func (s *Session) GroundTruthChunks(p int) (chunks [][]byte, ok bool) {
	e := s.truthFor(s.state.Load(), gtKey{p: p, visit: true})
	return e.chunks, !e.over
}

// groundTruthFor decodes the memoized lex Kp listing of snapshot st.
func (s *Session) groundTruthFor(st *sessionState, p int) []Clique {
	e := s.truthFor(st, gtKey{p: p})
	return decodeLines(e.lines, e.count, p, st.g.N())
}

// truthFor memoizes the encoded listing per (p, order, graph snapshot):
// the memo hits only when it was computed from exactly the snapshot asked
// for, so a verifying query racing an Apply always compares against the
// listing of the graph it actually ran on, while the mutation-free case
// keeps full memoization. Concurrent first requests coalesce on the
// entry's done channel.
func (s *Session) truthFor(st *sessionState, key gtKey) *gtEntry {
	if key.p < 1 || key.p > st.degen.Degeneracy+1 {
		return noTruth
	}
	s.gtMu.Lock()
	if e, ok := s.gt[key]; ok && e.g == st.g {
		s.gtMu.Unlock()
		<-e.done
		return e
	}
	e := &gtEntry{done: make(chan struct{}), g: st.g}
	s.gt[key] = e
	s.gtMu.Unlock()
	if key.visit {
		e.chunks, e.over = encodeVisit(st.g, key.p)
	} else {
		e.lines, e.count = encodeListing(st.g, key.p)
	}
	close(e.done)
	return e
}

// encodeListing lists g's p-cliques and encodes them into one exactly
// sized NDJSON buffer.
func encodeListing(g *Graph, p int) ([]byte, int) {
	cs := g.ListCliques(p)
	size := 0
	for _, c := range cs {
		size += c.LineLen()
	}
	lines := make([]byte, 0, size)
	scratch := make([]byte, 0, graph.MaxLineLen(p))
	for _, c := range cs {
		// Through scratch: AppendLine grows its destination by a whole
		// MaxLineLen, which would reallocate lines near its end.
		lines = append(lines, c.AppendLine(scratch[:0])...)
	}
	return lines, len(cs)
}

// encodeVisit encodes g's p-cliques in the kernel's visit order straight
// off the visitor, into chunks of graph.StreamBufferSize bytes (or one
// line, if longer) that are each allocated once and filled with whole
// lines; only the last is copied, to its length. Once the lines pass
// visitMemoCeiling bytes it stops, drops what it holds and reports over.
func encodeVisit(g *Graph, p int) (chunks [][]byte, over bool) {
	maxLine := graph.MaxLineLen(p)
	var cur []byte
	held := 0
	g.VisitCliquesUntil(p, func(c Clique) bool {
		if cap(cur)-len(cur) < maxLine {
			if len(cur) > 0 {
				chunks = append(chunks, cur)
			}
			cur = make([]byte, 0, max(graph.StreamBufferSize, maxLine))
		}
		n := len(cur)
		cur = c.AppendLine(cur)
		held += len(cur) - n
		over = held > visitMemoCeiling
		return !over
	})
	if over {
		return nil, true
	}
	if len(cur) > 0 {
		chunks = append(chunks, bytes.Clone(cur))
	}
	return chunks, false
}

// decodeLines reverses encodeListing: count cliques of p vertices over
// [0,n), sharing one flat backing array. No lines decode to nil, as
// Graph.ListCliques returns for an empty listing.
func decodeLines(lines []byte, count, p, n int) []Clique {
	if count == 0 {
		return nil
	}
	flat := make([]V, 0, count*p)
	out := make([]Clique, count)
	for i := range out {
		end := bytes.IndexByte(lines, '\n')
		start := len(flat)
		var err error
		if flat, err = graph.ParseCliqueLine(lines[:end], flat, n); err != nil {
			panic(fmt.Sprintf("kplist: corrupt ground-truth memo: %v", err))
		}
		out[i] = flat[start:len(flat):len(flat)]
		lines = lines[end+1:]
	}
	return out
}

// visitCtxCheckEvery is how many streamed cliques go by between context
// checks during VisitGroundTruth: frequent enough that a cancelled client
// stops the enumeration promptly, rare enough to stay off the hot path.
const visitCtxCheckEvery = 1024

// VisitGroundTruth streams the sequential kernel enumeration of Kp over
// the session's graph: yield is called once per clique (the slice is
// reused — copy to retain) in the kernel's deterministic enumeration
// order, and nothing is ever materialized. Enumeration stops early when
// yield returns false (not an error) or when ctx expires (its error is
// returned). It runs the kernel on every call; GroundTruthChunks serves
// the same listing, encoded, from the memo. kplistd streams through
// VisitGroundTruth only a listing too large to memoize: constant memory
// no matter how many cliques go by.
func (s *Session) VisitGroundTruth(ctx context.Context, p int, yield func(Clique) bool) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrSessionClosed
	}
	if p < 1 {
		return fmt.Errorf("%w: ground-truth streaming requires p ≥ 1, got %d", ErrInvalidQuery, p)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 0
	ctxStopped := false
	s.state.Load().g.VisitCliquesUntil(p, func(c Clique) bool {
		n++
		if n%visitCtxCheckEvery == 0 && ctx.Err() != nil {
			ctxStopped = true
			return false
		}
		return yield(c)
	})
	if ctxStopped {
		return ctx.Err()
	}
	return nil
}

// BatchResult pairs one query of a batch with its outcome.
type BatchResult struct {
	Query  Query
	Result *Result
	Err    error
}

// QueryBatch serves a batch of queries concurrently through the session's
// scheduler and returns outcomes aligned with the input order. Duplicate
// queries within the batch coalesce onto a single execution.
func (s *Session) QueryBatch(qs []Query) []BatchResult {
	return s.QueryBatchContext(context.Background(), qs)
}

// QueryBatchContext is QueryBatch under a context shared by every query of
// the batch; see QueryContext for the cancellation points. The batch runs
// on a bounded worker pool (a little wider than the execution scheduler so
// coalesced waiters never starve executors), not one goroutine per query,
// so an arbitrarily long batch cannot exhaust host memory on stacks.
func (s *Session) QueryBatchContext(ctx context.Context, qs []Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	workers := 2 * s.cfg.MaxConcurrent
	if floor := graph.CurrentTuning().BatchWorkers; workers < floor {
		workers = floor
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				res, err := s.QueryContext(ctx, qs[i])
				out[i] = BatchResult{Query: qs[i], Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// Stats returns a snapshot of the serving counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close marks the session closed: subsequent queries fail with
// ErrSessionClosed, in-flight queries complete normally. Close is
// idempotent and safe to call concurrently with queries and other Close
// calls. Closing is optional — a Session holds no resources beyond
// memory — but stops accidental use-after-serve.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
