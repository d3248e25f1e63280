package server

import (
	"container/list"
	"context"
	"sync"

	"kplist"
)

// PoolStats is a snapshot of the session pool's counters.
type PoolStats struct {
	// Open is the number of sessions currently in the pool (can briefly
	// exceed capacity while evicted sessions drain in-flight queries).
	Open int
	// Hits are Acquires served by an already-open session; Misses opened
	// a fresh one; Evictions count capacity- and invalidation-driven
	// closes (scheduled — the close itself waits for the last reference).
	Hits, Misses, Evictions int64
	// SessionQueries/SessionHits/SessionMisses aggregate the per-session
	// result-cache counters across open and retired sessions.
	SessionQueries, SessionHits, SessionMisses int64
}

// SessionPool is an LRU cache of open kplist.Sessions keyed by graph ID.
// A session holds a graph's query state (its result cache, ground-truth
// memo and sketches), so the pool is the serving layer's working set:
// capacity bounds that state, and least-recently-queried graphs are
// evicted first. The degeneracy peel, its orientation and the enumeration
// kernel are memoized on the registered Graph itself: only a graph's
// first open pays the peel, and an eviction does not undo it.
//
// Acquire/release is refcounted: an evicted session is removed from the
// pool immediately (new acquires open a fresh one) but closed only when
// its last in-flight query releases it, so eviction never fails an
// admitted request.
type SessionPool struct {
	mu       sync.Mutex
	capacity int
	cfg      kplist.SessionConfig

	lru     *list.List // of *poolEntry; front = most recently used
	entries map[string]*poolEntry

	hits, misses, evictions int64
	// retired accumulates result-cache counters of closed sessions so
	// /metrics never loses history to eviction.
	retired struct{ queries, hits, misses int64 }
}

type poolEntry struct {
	id      string
	elem    *list.Element
	refs    int
	evicted bool
	ready   chan struct{}
	sess    *kplist.Session // set before ready closes
}

// defaultPoolSize is the session pool's capacity when none is given.
const defaultPoolSize = 8

// NewSessionPool returns a pool of at most capacity open sessions
// (≤ 0 means defaultPoolSize), each opened with cfg.
func NewSessionPool(capacity int, cfg kplist.SessionConfig) *SessionPool {
	if capacity <= 0 {
		capacity = defaultPoolSize
	}
	return &SessionPool{
		capacity: capacity,
		cfg:      cfg,
		lru:      list.New(),
		entries:  make(map[string]*poolEntry),
	}
}

// Acquire returns the pooled session for id, opening one when absent,
// plus a release func the caller must invoke once done querying. The
// graph to open on comes from the `open` callback, invoked at open time —
// not captured at request-decode time — so a mutation (PATCH) that lands
// between the caller's registry lookup and the open never freezes a
// pre-mutation graph into the pool. Concurrent first acquires for the
// same id coalesce onto one opening; the open (which peels the graph the
// first time it is opened) runs outside the pool lock. A caller
// coalescing onto someone else's open honors ctx while waiting (the
// opener itself always finishes the open — others depend on it), so a
// short-deadline request never pins its admission slot for the full
// preprocessing of a large graph.
func (p *SessionPool) Acquire(ctx context.Context, id string, open func() *kplist.Graph) (*kplist.Session, func(), error) {
	p.mu.Lock()
	if e, ok := p.entries[id]; ok {
		e.refs++
		p.lru.MoveToFront(e.elem)
		p.hits++
		p.mu.Unlock()
		// An already-open session wins over an expired context (select
		// between two ready channels picks randomly).
		select {
		case <-e.ready:
			return e.sess, func() { p.release(e) }, nil
		default:
		}
		select {
		case <-e.ready:
			return e.sess, func() { p.release(e) }, nil
		case <-ctx.Done():
			p.release(e)
			return nil, nil, ctx.Err()
		}
	}
	e := &poolEntry{id: id, refs: 1, ready: make(chan struct{})}
	e.elem = p.lru.PushFront(e)
	p.entries[id] = e
	p.misses++
	p.evictOverflowLocked()
	p.mu.Unlock()

	e.sess = kplist.NewSession(open(), p.cfg)
	close(e.ready)
	return e.sess, func() { p.release(e) }, nil
}

// evictLocked removes e from the pool: new acquires will open fresh, the
// session closes when the last reference releases.
func (p *SessionPool) evictLocked(e *poolEntry) {
	p.lru.Remove(e.elem)
	delete(p.entries, e.id)
	e.evicted = true
	p.evictions++
	if e.refs == 0 {
		p.closeRetiredLocked(e)
	}
}

// evictOverflowLocked trims the LRU tail down to capacity. Evicted entries
// leave the map immediately; their sessions close on last release.
func (p *SessionPool) evictOverflowLocked() {
	for p.lru.Len() > p.capacity {
		p.evictLocked(p.lru.Back().Value.(*poolEntry))
	}
}

func (p *SessionPool) release(e *poolEntry) {
	p.mu.Lock()
	e.refs--
	if e.evicted && e.refs == 0 {
		p.closeRetiredLocked(e)
	}
	p.mu.Unlock()
}

// closeRetiredLocked folds the dying session's cache counters into the
// retired accumulator and closes it. refs == 0 implies the opener already
// released, so e.sess is set.
func (p *SessionPool) closeRetiredLocked(e *poolEntry) {
	st := e.sess.Stats()
	p.retired.queries += st.Queries
	p.retired.hits += st.Hits
	p.retired.misses += st.Misses
	e.sess.Close()
}

// Invalidate evicts id's session (if pooled) regardless of recency — the
// DELETE /v1/graphs/{id} path. In-flight queries complete first.
func (p *SessionPool) Invalidate(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[id]; ok {
		p.evictLocked(e)
	}
}

// InvalidateOther evicts id's pooled session unless it is exactly sess —
// the mutation path's consistency hook. A PATCH applies to the session it
// acquired; if that session was concurrently evicted and a fresh one
// opened from the registry's pre-mutation graph, the fresh session would
// keep serving the old prefix to every later request. Called after the
// registry swap, this evicts such a stale entry (including one still
// opening) so the next acquire reopens from the updated registry graph.
func (p *SessionPool) InvalidateOther(id string, sess *kplist.Session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[id]
	if !ok {
		return
	}
	select {
	case <-e.ready:
		if e.sess == sess {
			return // the pooled session is the one just mutated — current
		}
	default: // still opening: graph provenance unknown, evict to be safe
	}
	p.evictLocked(e)
}

// Contains reports whether id currently has a pooled session (test hook).
func (p *SessionPool) Contains(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[id]
	return ok
}

// Stats returns a snapshot of the pool counters, aggregating the
// result-cache counters of every open session with the retired history.
func (p *SessionPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Open:           len(p.entries),
		Hits:           p.hits,
		Misses:         p.misses,
		Evictions:      p.evictions,
		SessionQueries: p.retired.queries,
		SessionHits:    p.retired.hits,
		SessionMisses:  p.retired.misses,
	}
	for _, e := range p.entries {
		select {
		case <-e.ready:
			s := e.sess.Stats()
			st.SessionQueries += s.Queries
			st.SessionHits += s.Hits
			st.SessionMisses += s.Misses
		default: // still opening; counts are zero anyway
		}
	}
	return st
}
