package kplist

// The approximate query tier (DESIGN.md §14) at the Session layer: a
// maintained HLL fingerprint of the distinct-clique set per requested
// (p, precision, seed), plus Estimate — the planner-driven entry point
// that answers a clique-count question with the exact kernel, the sketch,
// or edge sampling, always labelling the answer so an estimate can never
// be mistaken for truth.
//
// Sketches follow the ground-truth memo discipline: entries are keyed by
// the graph snapshot pointer they were inscribed from, concurrent first
// requests coalesce, and published sketches are immutable. Mutation
// batches of pure insertions are folded in incrementally (every new
// p-clique contains an added edge, and HLL inscription is idempotent, so
// re-enumerating the frontier around the added edges reproduces the
// from-scratch sketch byte-for-byte); any deletion or rebuild marks the
// sketch stale, and the next request lazily rebuilds it — both paths
// counted in SessionStats.

import (
	"context"
	"fmt"
	"time"

	"kplist/internal/graph"
	"kplist/internal/sketch"
)

// CliqueSketch is the mergeable fixed-size HLL fingerprint of a
// distinct-clique set; see internal/sketch.
type CliqueSketch = sketch.CliqueHLL

// Estimate methods, as reported in EstimateResult.Method and accepted as
// EstimateRequest.Method overrides.
const (
	EstimateExact  = sketch.MethodExact
	EstimateHLL    = sketch.MethodHLL
	EstimateSample = sketch.MethodSample
)

// maxSketchEntries bounds the maintained-sketch map: distinct
// (p, precision, seed) requests are distinct entries, so untrusted query
// streams must not grow it unboundedly. Past the bound, completed entries
// for superseded snapshots are dropped first.
const maxSketchEntries = 16

type sketchKey struct {
	p, precision int
	seed         int64
}

// sketchEntry is one published (or in-flight) sketch build; h is immutable
// once done closes, and g is the snapshot it describes.
type sketchEntry struct {
	done  chan struct{}
	g     *Graph
	h     *sketch.CliqueHLL
	err   error
	stale bool
}

// EstimateRequest asks for an approximate (or budget-checked exact)
// p-clique count.
type EstimateRequest struct {
	// P is the clique size (≥ 3).
	P int
	// Eps is the relative-error target (default 0.05); Conf the two-sided
	// confidence level (default 0.95). Together they size the sketch
	// precision and the adaptive sample count.
	Eps, Conf float64
	// Budget is the per-request cost budget the planner prices the exact
	// kernel against; 0 means unbudgeted (exact wins).
	Budget time.Duration
	// Method, when set to one of the Estimate* constants, bypasses the
	// planner. Empty or "auto" lets it decide.
	Method string
	// Seed drives the sketch hash and the sampling RNG (deterministic
	// replay); Samples, when > 0, fixes the sample count; Precision, when
	// > 0, overrides the eps-derived sketch precision.
	Seed      int64
	Samples   int
	Precision int
}

// EstimateResult is the labelled answer: Exact is true only when the exact
// kernel produced it, in which case CILo = CIHi = Estimate.
type EstimateResult struct {
	P                    int
	Estimate, CILo, CIHi float64
	// Method is which path answered; Exact guards against mistaking an
	// estimate for truth.
	Method string
	Exact  bool
	// Samples is the edge-sample count (sampling only); Precision the
	// sketch precision (HLL only); StaleRebuilt reports the answer forced
	// a lazy rebuild of a deletion-staled sketch.
	Samples      int
	Precision    int
	Eps, Conf    float64
	StaleRebuilt bool
}

func (r EstimateRequest) withDefaults() EstimateRequest {
	if r.Eps <= 0 {
		r.Eps = sketch.DefaultEps
	}
	if !(r.Conf > 0 && r.Conf < 1) {
		r.Conf = sketch.DefaultConf
	}
	if r.Method == "auto" {
		r.Method = ""
	}
	if r.Precision <= 0 {
		r.Precision = sketch.PrecisionForEps(r.Eps, r.Conf)
	}
	return r
}

// Estimate answers a p-clique count question through the planner: exact
// kernel when the modeled cost fits the budget, the maintained sketch when
// one is fresh, edge sampling otherwise. See EstimateRequest/EstimateResult.
func (s *Session) Estimate(ctx context.Context, req EstimateRequest) (*EstimateResult, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	if req.P < 3 {
		return nil, fmt.Errorf("%w: estimate requires p ≥ 3, got %d", ErrInvalidQuery, req.P)
	}
	switch req.Method {
	case "", "auto", EstimateExact, EstimateHLL, EstimateSample:
	default:
		return nil, fmt.Errorf("%w: unknown estimate method %q", ErrInvalidQuery, req.Method)
	}
	req = req.withDefaults()
	if req.Precision < sketch.MinPrecision || req.Precision > sketch.MaxPrecision {
		return nil, fmt.Errorf("%w: sketch precision %d outside [%d, %d]",
			ErrInvalidQuery, req.Precision, sketch.MinPrecision, sketch.MaxPrecision)
	}
	st := s.state.Load()
	key := sketchKey{p: req.P, precision: req.Precision, seed: req.Seed}
	dec := sketch.Plan(sketch.PlanInput{
		N: st.g.N(), M: st.g.M(), Degeneracy: st.g.Degeneracy().Degeneracy, P: req.P,
		Budget:         req.Budget,
		HasFreshSketch: s.sketchFresh(key, st.g),
		Method:         req.Method,
	})
	out := &EstimateResult{P: req.P, Method: dec.Method, Eps: req.Eps, Conf: req.Conf}
	switch dec.Method {
	case EstimateExact:
		n, err := exactCountContext(ctx, st.g, req.P)
		if err != nil {
			return nil, err
		}
		out.Estimate, out.CILo, out.CIHi, out.Exact = float64(n), float64(n), float64(n), true
	case EstimateHLL:
		h, staleRebuilt, err := s.sketchFor(ctx, key, st)
		if err != nil {
			return nil, err
		}
		out.Estimate = h.Estimate()
		out.CILo, out.CIHi = h.ConfidenceInterval(req.Conf)
		out.Precision, out.StaleRebuilt = h.Precision(), staleRebuilt
	case EstimateSample:
		r, err := sketch.RunSample(ctx, st.g, sketch.SampleConfig{
			P: req.P, Seed: req.Seed, Samples: req.Samples,
			Eps: req.Eps, Conf: req.Conf, Budget: req.Budget,
		})
		if err != nil {
			return nil, err
		}
		out.Estimate, out.CILo, out.CIHi, out.Samples = r.Estimate, r.CILo, r.CIHi, r.Samples
	}
	return out, nil
}

// Sketch returns the maintained HLL fingerprint of the session's current
// p-clique set at the given precision and seed, building (or lazily
// rebuilding a deletion-staled one, reported by the second return) on
// first request. The returned sketch is immutable — MarshalBinary it for
// transport, Clone it to mutate.
func (s *Session) Sketch(ctx context.Context, p, precision int, seed int64) (*CliqueSketch, bool, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, false, ErrSessionClosed
	}
	if p < 1 {
		return nil, false, fmt.Errorf("%w: sketch requires p ≥ 1, got %d", ErrInvalidQuery, p)
	}
	if precision <= 0 {
		precision = sketch.PrecisionForEps(0, 0)
	}
	if precision < sketch.MinPrecision || precision > sketch.MaxPrecision {
		return nil, false, fmt.Errorf("%w: sketch precision %d outside [%d, %d]",
			ErrInvalidQuery, precision, sketch.MinPrecision, sketch.MaxPrecision)
	}
	return s.sketchFor(ctx, sketchKey{p: p, precision: precision, seed: seed}, s.state.Load())
}

// sketchFresh reports whether a completed, non-stale sketch for key exists
// against the snapshot g — the planner's HasFreshSketch input.
func (s *Session) sketchFresh(key sketchKey, g *Graph) bool {
	s.skMu.Lock()
	e, ok := s.sketches[key]
	s.skMu.Unlock()
	if !ok || e.g != g || e.stale {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return true // in flight against the right snapshot: joining is cheap
	}
}

// sketchFor returns the sketch for key against the snapshot st, coalescing
// concurrent first builds exactly like truthFor. The second return
// reports that this request rebuilt a deletion-staled sketch.
func (s *Session) sketchFor(ctx context.Context, key sketchKey, st *sessionState) (*sketch.CliqueHLL, bool, error) {
	s.skMu.Lock()
	if e, ok := s.sketches[key]; ok && e.g == st.g && !e.stale {
		s.skMu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			return nil, false, e.err
		}
		return e.h, false, nil
	}
	staleRebuild := false
	if e, ok := s.sketches[key]; ok && e.stale {
		staleRebuild = true
	}
	e := &sketchEntry{done: make(chan struct{}), g: st.g}
	s.sketches[key] = e
	s.evictSketchOverflowLocked(st.g)
	s.mu.Lock()
	s.stats.SketchBuilds++
	if staleRebuild {
		s.stats.SketchStaleRebuilds++
	}
	s.mu.Unlock()
	s.skMu.Unlock()

	h, err := buildSketch(ctx, st.g, key)
	if err != nil {
		// Failed builds are forgotten so the next request retries, exactly
		// like finishEntry's failure path.
		s.skMu.Lock()
		if s.sketches[key] == e {
			delete(s.sketches, key)
		}
		s.skMu.Unlock()
		e.err = err
		close(e.done)
		return nil, false, err
	}
	e.h = h
	close(e.done)
	return h, staleRebuild, nil
}

// buildSketch inscribes every p-clique of g from scratch, honoring ctx
// between visitor batches.
func buildSketch(ctx context.Context, g *Graph, key sketchKey) (*sketch.CliqueHLL, error) {
	h, err := sketch.NewCliqueHLL(key.precision, key.seed)
	if err != nil {
		return nil, err
	}
	n := 0
	ctxStopped := false
	g.VisitCliquesUntil(key.p, func(c Clique) bool {
		h.Inscribe(c)
		n++
		if n%visitCtxCheckEvery == 0 && ctx.Err() != nil {
			ctxStopped = true
			return false
		}
		return true
	})
	if ctxStopped {
		return nil, ctx.Err()
	}
	return h, nil
}

// exactCountContext counts p-cliques through the streaming kernel with
// periodic context checks, so a budgeted exact answer stays cancellable.
func exactCountContext(ctx context.Context, g *Graph, p int) (int64, error) {
	var n int64
	ctxStopped := false
	g.VisitCliquesUntil(p, func(Clique) bool {
		n++
		if n%visitCtxCheckEvery == 0 && ctx.Err() != nil {
			ctxStopped = true
			return false
		}
		return true
	})
	if ctxStopped {
		return 0, ctx.Err()
	}
	return n, nil
}

// evictSketchOverflowLocked (skMu held) bounds the sketch map: past
// maxSketchEntries, completed entries for snapshots other than the current
// one go first, then arbitrary completed entries. In-flight builds are
// never dropped.
func (s *Session) evictSketchOverflowLocked(current *Graph) {
	if len(s.sketches) <= maxSketchEntries {
		return
	}
	for pass := 0; pass < 2 && len(s.sketches) > maxSketchEntries; pass++ {
		for k, e := range s.sketches {
			if len(s.sketches) <= maxSketchEntries {
				break
			}
			select {
			case <-e.done:
			default:
				continue
			}
			if pass == 0 && e.g == current && !e.stale {
				continue
			}
			delete(s.sketches, k)
		}
	}
}

// maintainSketches folds one applied mutation batch into every maintained
// sketch (applyMu held by Apply). Pure-insertion batches inscribe the
// frontier around the added edges into a clone published for the new
// snapshot — byte-identical to a from-scratch rebuild, since every new
// p-clique contains an added edge and inscription is idempotent. Any
// deletion or density-threshold rebuild marks the sketch stale instead
// (HLL registers cannot un-inscribe); the next request rebuilds lazily.
func (s *Session) maintainSketches(oldG, newG *Graph, delta *graph.Delta) {
	s.skMu.Lock()
	defer s.skMu.Unlock()
	var incremental, staleMarked int64
	for key, e := range s.sketches {
		select {
		case <-e.done:
		default:
			// An in-flight build of some snapshot; its waiters still get a
			// consistent answer, but the map entry is superseded.
			delete(s.sketches, key)
			continue
		}
		if e.err != nil || e.g != oldG {
			delete(s.sketches, key)
			continue
		}
		if e.stale {
			continue // already awaiting lazy rebuild
		}
		if delta.Rebuilt || len(delta.RemovedEdges) > 0 {
			e.stale = true
			staleMarked++
			continue
		}
		h := e.h.Clone()
		for _, ae := range delta.AddedEdges {
			newG.VisitCliquesThroughEdge(ae, key.p, func(c Clique) bool {
				h.Inscribe(c)
				return true
			})
		}
		ne := &sketchEntry{done: make(chan struct{}), g: newG, h: h}
		close(ne.done)
		s.sketches[key] = ne
		incremental++
	}
	if incremental > 0 || staleMarked > 0 {
		s.mu.Lock()
		s.stats.SketchIncremental += incremental
		s.stats.SketchStaleMarked += staleMarked
		s.mu.Unlock()
	}
}
