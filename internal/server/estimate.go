package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"kplist"
	"kplist/internal/sketch"
)

// The approximate query tier's HTTP surface (DESIGN.md §14):
// POST /v1/graphs/{id}/query?mode=estimate answers a clique-count query
// with a point estimate plus confidence interval instead of an exact
// enumeration, and GET /v1/graphs/{id}/sketch serves the maintained
// CliqueHLL in its binary codec — the primitive the cluster gateway
// scatters over shards and merges register-wise.

// estimateResponse is the ?mode=estimate answer. Exact is false on every
// estimator path so a caller can never mistake an estimate for truth; the
// interval [ci_lo, ci_hi] holds at the echoed confidence level.
type estimateResponse struct {
	Graph        string  `json:"graph"`
	P            int     `json:"p"`
	Estimate     float64 `json:"estimate"`
	CILo         float64 `json:"ci_lo"`
	CIHi         float64 `json:"ci_hi"`
	Method       string  `json:"method"`
	Exact        bool    `json:"exact"`
	Eps          float64 `json:"eps"`
	Conf         float64 `json:"conf"`
	Samples      int     `json:"samples,omitempty"`
	Precision    int     `json:"precision,omitempty"`
	StaleRebuilt bool    `json:"staleRebuilt,omitempty"`
}

// queryFloat parses an optional float query parameter; absent means 0.
func queryFloat(q url.Values, name string) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, s)
	}
	return v, nil
}

// queryInt parses an optional integer query parameter; absent means 0.
func queryInt(q url.Values, name string) (int64, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", name, s)
	}
	return v, nil
}

// maxSamples bounds an explicit samples parameter at the sampler's own
// adaptive cap: a fixed sample count runs to the end without polling the
// request's context, so an unbounded one could hold a CPU for minutes.
const maxSamples = 1 << 16

// estimateParams assembles the EstimateRequest from the URL parameters
// (eps, conf, budget_ms, method, samples, precision) and the decoded
// query body (p, seed).
func estimateParams(q url.Values, body apiQuery) (kplist.EstimateRequest, error) {
	req := kplist.EstimateRequest{P: body.P, Seed: body.Seed, Method: q.Get("method")}
	var err error
	if req.Eps, err = queryFloat(q, "eps"); err != nil {
		return req, err
	}
	if req.Eps < 0 {
		return req, fmt.Errorf("bad eps: %g is negative", req.Eps)
	}
	if req.Conf, err = queryFloat(q, "conf"); err != nil {
		return req, err
	}
	if req.Conf < 0 || req.Conf >= 1 {
		return req, fmt.Errorf("bad conf: %g outside (0, 1)", req.Conf)
	}
	budgetMS, err := queryInt(q, "budget_ms")
	if err != nil {
		return req, err
	}
	if budgetMS < 0 {
		return req, fmt.Errorf("bad budget_ms: %d is negative", budgetMS)
	}
	req.Budget = time.Duration(budgetMS) * time.Millisecond
	samples, err := queryInt(q, "samples")
	if err != nil {
		return req, err
	}
	if samples < 0 || samples > maxSamples {
		return req, fmt.Errorf("bad samples: %d outside [0, %d]", samples, maxSamples)
	}
	precision, err := queryInt(q, "precision")
	if err != nil {
		return req, err
	}
	if sv := q.Get("seed"); sv != "" {
		// A URL seed overrides the body's: the gateway propagates sketch
		// parameters through the URL alone.
		if req.Seed, err = queryInt(q, "seed"); err != nil {
			return req, err
		}
	}
	req.Samples, req.Precision = int(samples), int(precision)
	return req, nil
}

// handleEstimate is the ?mode=estimate branch of POST /query: one inline
// query answered by the Session's planner (exact kernel priced against
// budget_ms, else the maintained sketch, else edge sampling).
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, id string, rg *RegisteredGraph) {
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query body: %w", err))
		return
	}
	if len(req.Queries) > 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("mode=estimate answers a single inline query, not a batch"))
		return
	}
	est, err := estimateParams(r.URL.Query(), req.apiQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, release, err := s.acquireChecked(r.Context(), id, rg.G)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer release()
	res, err := sess.Estimate(r.Context(), est)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.met.estimates.With(res.Method).Inc()
	writeJSON(w, http.StatusOK, estimateResponse{
		Graph:        id,
		P:            res.P,
		Estimate:     res.Estimate,
		CILo:         res.CILo,
		CIHi:         res.CIHi,
		Method:       res.Method,
		Exact:        res.Exact,
		Eps:          res.Eps,
		Conf:         res.Conf,
		Samples:      res.Samples,
		Precision:    res.Precision,
		StaleRebuilt: res.StaleRebuilt,
	})
}

// Sketch response headers: the decoded parameters ride alongside the
// binary body so a caller (or the gateway) can sanity-check compatibility
// without parsing the frame.
const (
	sketchHeaderP            = "X-Kplist-Sketch-P"
	sketchHeaderPrecision    = "X-Kplist-Sketch-Precision"
	sketchHeaderSeed         = "X-Kplist-Sketch-Seed"
	sketchHeaderStaleRebuilt = "X-Kplist-Sketch-Stale-Rebuilt"
)

// handleSketch serves GET /v1/graphs/{id}/sketch: the maintained
// CliqueHLL for (p, precision, seed) in its binary codec. precision=0
// resolves from eps/conf exactly as the estimate path does, so a default
// sketch fetch and a default mode=estimate ride the same maintained
// sketch. The encoding carries no counters, so two nodes holding the same
// distinct-clique set answer byte-identically — the invariant the
// gateway's register-wise shard merge is pinned against.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	q := r.URL.Query()
	p, err := strconv.Atoi(q.Get("p"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad or missing p: %q", q.Get("p")))
		return
	}
	seed, err := queryInt(q, "seed")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	precision, err := queryInt(q, "precision")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if precision == 0 {
		eps, err := queryFloat(q, "eps")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		conf, err := queryFloat(q, "conf")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		precision = int64(sketch.PrecisionForEps(eps, conf))
	}
	sess, release, err := s.acquireChecked(r.Context(), id, rg.G)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer release()
	h, staleRebuilt, err := sess.Sketch(r.Context(), p, int(precision), seed)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	data, err := h.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(sketchHeaderP, strconv.Itoa(p))
	w.Header().Set(sketchHeaderPrecision, strconv.Itoa(h.Precision()))
	w.Header().Set(sketchHeaderSeed, strconv.FormatInt(h.Seed(), 10))
	if staleRebuilt {
		w.Header().Set(sketchHeaderStaleRebuilt, "true")
	}
	_, _ = w.Write(data)
}
