package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"kplist"
	"kplist/internal/graph"
)

// errorResponse is the JSON error envelope every non-2xx body uses.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusFor maps typed kplist/server errors onto HTTP statuses: caller
// mistakes (unknown engine/family, out-of-domain query) are 4xx, deadline
// and shutdown conditions 5xx, everything unrecognized 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, kplist.ErrInvalidQuery),
		errors.Is(err, kplist.ErrUnknownEngine),
		errors.Is(err, kplist.ErrUnknownFamily):
		return http.StatusBadRequest
	case errors.Is(err, ErrGraphNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrRegistryFull), errors.Is(err, ErrDuplicateGraphID):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, kplist.ErrSessionClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// registerRequest registers a graph: either an explicit edge list over n
// vertices, or a workload spec to generate from (exactly one of the two).
// ID is the cluster extension: the gateway mints one graph ID and has the
// owner and every replica register under it, so placement and lookups
// agree across the membership. Explicit IDs may not use the registry's
// auto-assigned "g<n>" namespace.
type registerRequest struct {
	ID       string               `json:"id,omitempty"`
	Name     string               `json:"name,omitempty"`
	N        int                  `json:"n,omitempty"`
	Edges    [][2]int32           `json:"edges,omitempty"`
	Workload *kplist.WorkloadSpec `json:"workload,omitempty"`
	// Family and Seq are the repair-install extension: an anti-entropy
	// full-state transfer POSTs an owner's /export document here, and the
	// replica adopts the graph's family label and applied-batch sequence
	// number along with its edges (Seq is ignored for workload bodies —
	// generated graphs start their history at 0).
	Family string `json:"family,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
		return
	}
	var (
		g       *kplist.Graph
		family  string
		planted []kplist.Clique
	)
	switch {
	case req.Workload != nil && req.Edges != nil:
		writeError(w, http.StatusBadRequest, errors.New("provide either edges or workload, not both"))
		return
	case req.Workload != nil:
		// Bound generation cost before generating: the same vertex/edge
		// limits the upload path enforces, with the edge side checked
		// against the spec's expected edge count (generation is Θ(edges)).
		if req.Workload.N > s.cfg.MaxUploadN {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("workload n=%d exceeds limit %d", req.Workload.N, s.cfg.MaxUploadN))
			return
		}
		est, err := req.Workload.EstimatedEdges()
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if est > int64(s.cfg.MaxUploadEdges) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("workload expects ≈%d edges, exceeding limit %d", est, s.cfg.MaxUploadEdges))
			return
		}
		inst, err := kplist.GenerateWorkload(*req.Workload)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		g = inst.G
		family = inst.Spec.Family
		for _, c := range inst.Props.Planted {
			planted = append(planted, kplist.Clique(c))
		}
	default:
		if req.N < 0 || req.N > s.cfg.MaxUploadN {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("n=%d outside [0, %d]", req.N, s.cfg.MaxUploadN))
			return
		}
		if len(req.Edges) > s.cfg.MaxUploadEdges {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%d edges exceeds limit %d", len(req.Edges), s.cfg.MaxUploadEdges))
			return
		}
		edges := make([]kplist.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = kplist.Edge{U: e[0], V: e[1]}
		}
		var err error
		g, err = kplist.NewGraph(req.N, edges)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		family = req.Family
	}
	seq := req.Seq
	if req.Workload != nil {
		seq = 0
	}
	// The registry admits (or refuses) first: a capacity rejection must
	// never create files, so ErrRegistryFull leaves no debris on disk.
	var (
		info GraphInfo
		err  error
	)
	if req.ID != "" {
		info, err = s.reg.RegisterWithID(req.ID, req.Name, family, g, planted)
	} else {
		info, err = s.reg.Register(req.Name, family, g, planted)
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if s.persist != nil {
		if err := s.persist.create(info, g, seq, s.reg); err != nil {
			// Roll the registration back: a graph the store cannot hold
			// durably is not registered at all.
			_ = s.reg.Remove(info.ID)
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("persisting graph %s: %w", info.ID, err))
			return
		}
	}
	if seq > 0 {
		s.appliedSeq(info.ID).Store(seq)
	}
	w.Header().Set(SeqHeader, strconv.FormatUint(seq, 10))
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rg, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rg.Info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Hold the graph's mutation lock so a concurrent PATCH can't append
	// to a WAL whose files are being removed underneath it.
	unlock := s.lockMutations(id)
	defer unlock()
	if err := s.reg.Remove(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if s.persist != nil {
		if err := s.persist.remove(id, s.reg); err != nil {
			// The graph is gone from the registry either way; report the
			// cleanup failure (orphaned files are swept at next boot).
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("removing graph %s files: %w", id, err))
			s.pool.Invalidate(id)
			s.mutLocks.Delete(id)
			return
		}
	}
	s.pool.Invalidate(id)
	s.mutLocks.Delete(id) // IDs never recycle, so the lock is garbage now
	s.seqs.Delete(id)
	w.WriteHeader(http.StatusNoContent)
}

// apiQuery is the wire form of one kplist.Query.
type apiQuery struct {
	P             int     `json:"p"`
	Algo          string  `json:"algo,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	PaperCosts    bool    `json:"paperCosts,omitempty"`
	FinalExponent float64 `json:"finalExponent,omitempty"`
}

func (q apiQuery) toQuery() kplist.Query {
	return kplist.Query{
		P:             q.P,
		Algo:          kplist.Algorithm(q.Algo),
		Seed:          q.Seed,
		PaperCosts:    q.PaperCosts,
		FinalExponent: q.FinalExponent,
	}
}

// queryRequest is a batch (Queries) or a single query (the inline apiQuery
// fields, used when Queries is empty).
type queryRequest struct {
	apiQuery
	Queries        []apiQuery `json:"queries,omitempty"`
	IncludeCliques bool       `json:"includeCliques,omitempty"`
}

type queryResult struct {
	Query      apiQuery        `json:"query"`
	Cliques    int             `json:"cliques"`
	Rounds     int64           `json:"rounds"`
	Messages   int64           `json:"messages"`
	CliqueList []kplist.Clique `json:"cliqueList,omitempty"`
	Error      string          `json:"error,omitempty"`
}

type queryResponse struct {
	Graph   string        `json:"graph"`
	Results []queryResult `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "exact":
	case "estimate":
		// The approximate tier (estimate.go): answer with a point
		// estimate + confidence interval instead of exact enumeration.
		s.handleEstimate(w, r, id, rg)
		return
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", mode))
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query body: %w", err))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds limit %d", len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	single := len(req.Queries) == 0
	wire := req.Queries
	if single {
		wire = []apiQuery{req.apiQuery}
	}
	qs := make([]kplist.Query, len(wire))
	for i, q := range wire {
		qs[i] = q.toQuery()
	}

	sess, release, err := s.acquireChecked(r.Context(), id, rg.G)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer release()
	batch := sess.QueryBatchContext(r.Context(), qs)

	resp := queryResponse{Graph: id, Results: make([]queryResult, len(batch))}
	for i, br := range batch {
		qr := queryResult{Query: wire[i]}
		if br.Err != nil {
			qr.Error = br.Err.Error()
		} else {
			qr.Cliques = len(br.Result.Cliques)
			qr.Rounds = br.Result.Rounds
			qr.Messages = br.Result.Messages
			if req.IncludeCliques {
				qr.CliqueList = br.Result.Cliques
			}
		}
		resp.Results[i] = qr
	}
	// A single failed query maps its typed error to the response status;
	// batches always answer 200 with per-result errors.
	if single && batch[0].Err != nil {
		writeJSON(w, statusFor(batch[0].Err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// mutationWire is the wire form of one edge mutation.
type mutationWire struct {
	// Op is "add" or "remove" (alias "del").
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// patchRequest is the PATCH /v1/graphs/{id}/edges body.
type patchRequest struct {
	Mutations []mutationWire `json:"mutations"`
}

// patchResponse reports what one mutation batch did.
type patchResponse struct {
	Graph string `json:"graph"`
	// Mutations echoes the batch length; AddedEdges/RemovedEdges count the
	// effective changes (redundant ops are no-ops).
	Mutations    int  `json:"mutations"`
	AddedEdges   int  `json:"addedEdges"`
	RemovedEdges int  `json:"removedEdges"`
	Rebuilt      bool `json:"rebuilt"`
	// InvalidatedResults counts the session cache entries the batch
	// dropped; untouched listings stay served from cache.
	InvalidatedResults int `json:"invalidatedResults"`
	N                  int `json:"n"`
	M                  int `json:"m"`
	// Seq is the graph's applied-batch sequence number after this request
	// (also in the X-Kplist-Seq header); Duplicate marks a replica apply
	// that was skipped because its sequence number was already applied —
	// the idempotence the hinted-handoff replay path relies on.
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

// handlePatchEdges applies a batch of edge mutations to a registered
// graph through its pooled session's incremental clique-delta engine,
// then swaps the mutated snapshot into the registry so the change
// survives session eviction. Affected cached results are invalidated
// selectively inside Session.Apply — a mutation burst never flushes the
// whole working set.
func (s *Server) handlePatchEdges(w http.ResponseWriter, r *http.Request) {
	s.applyPatch(w, r, false)
}

// handleReplicaApply is the cluster replication path: the gateway
// acknowledges a PATCH once the owner has committed it, then replays the
// same batch here on every replica. The apply pipeline is identical to
// the owner's (WAL barrier first, then the incremental engine) — only the
// accounting differs, so replica write volume is visible separately from
// client write volume on /metrics.
func (s *Server) handleReplicaApply(w http.ResponseWriter, r *http.Request) {
	s.applyPatch(w, r, true)
}

func (s *Server) applyPatch(w http.ResponseWriter, r *http.Request, replica bool) {
	id := r.PathValue("id")
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// A replica apply without a seq header is applied unsequenced. A
	// header that is present must parse: read as 0, a malformed value
	// would skip the ordering fence below.
	var hdrSeq uint64
	if replica && len(r.Header.Values(SeqHeader)) > 0 {
		if hdrSeq, err = strconv.ParseUint(r.Header.Get(SeqHeader), 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s header: %w", SeqHeader, err))
			return
		}
	}
	var req patchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad mutation body: %w", err))
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty mutation batch"))
		return
	}
	if len(req.Mutations) > s.cfg.MaxMutationBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d mutations exceeds limit %d", len(req.Mutations), s.cfg.MaxMutationBatch))
		return
	}
	muts := make([]kplist.Mutation, len(req.Mutations))
	for i, mw := range req.Mutations {
		switch mw.Op {
		case "add":
			muts[i] = kplist.AddEdgeMutation(mw.U, mw.V)
		case "remove", "del":
			muts[i] = kplist.DelEdgeMutation(mw.U, mw.V)
		default:
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("mutation %d: unknown op %q (want \"add\" or \"remove\")", i, mw.Op))
			return
		}
	}

	// Serialize acquire→apply→publish per graph. The lock must precede the
	// acquire: otherwise two PATCHes racing a pool eviction can each open a
	// session from the same pre-mutation registry graph, and the second
	// publish silently drops the first batch. Held across the acquire, the
	// second PATCH's open callback reads the registry only after the first
	// has published.
	unlock := s.lockMutations(id)
	defer unlock()

	// Replica applies carry the owner-assigned sequence number and must
	// land strictly in order: a duplicate (hinted-handoff replay, fan-out
	// retry) is acknowledged without re-applying, and a gap means this
	// replica missed acknowledged batches — applying out of order would
	// bury the divergence in the WAL, so it is refused and left to the
	// anti-entropy sweeper's full-state repair.
	seq := s.appliedSeq(id)
	if hdrSeq > 0 {
		cur := seq.Load()
		if hdrSeq <= cur {
			s.met.replicaDuplicates.Inc()
			w.Header().Set(SeqHeader, strconv.FormatUint(cur, 10))
			writeJSON(w, http.StatusOK, patchResponse{
				Graph: id, Mutations: len(muts), Duplicate: true,
				Seq: cur, N: rg.G.N(), M: rg.G.M(),
			})
			return
		}
		if hdrSeq != cur+1 {
			s.met.replicaGaps.Inc()
			writeError(w, http.StatusConflict,
				fmt.Errorf("replica seq gap on graph %s: applied %d, got %d", id, cur, hdrSeq))
			return
		}
	}

	sess, release, err := s.acquireChecked(r.Context(), id, rg.G)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer release()

	// Durability barrier: with persistence on, the session hands each
	// batch's effective mutations to the graph's WAL before anything
	// mutates — an append failure rejects the whole batch, so the log
	// never lags the served state. The hook is (re)installed under the
	// mutation lock; sessions reopened by the pool start without one.
	var st *kplist.GraphStore
	if s.persist != nil {
		st = s.persist.store(id)
	}
	if st != nil {
		sess.SetMutationHook(func(eff []kplist.Mutation) error {
			t0 := time.Now()
			if err := st.AppendBatch(eff); err != nil {
				return err
			}
			s.met.walAppends.Inc()
			s.met.walFsync.Observe(time.Since(t0))
			return nil
		})
	}
	start := time.Now()
	ar, err := sess.Apply(r.Context(), muts)
	if err != nil {
		if errors.Is(err, kplist.ErrInvalidMutation) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	s.met.mutLatency.Observe(time.Since(start))
	s.met.mutOps.Add(int64(len(muts)))
	if ar.Rebuilt {
		s.met.mutRebuild.Inc()
	} else {
		s.met.mutIncremental.Inc()
	}
	if replica {
		s.met.replicaApplies.Inc()
	}

	// Publish the mutated snapshot: registry first (future session opens
	// must see it), then evict any pooled session that is not the one just
	// mutated — a concurrent eviction may have reopened from the stale
	// registry graph between our acquire and the update.
	if _, err := s.reg.UpdateGraph(id, ar.Graph); err != nil {
		// The graph was deleted mid-flight; drop any pooled successor.
		s.pool.Invalidate(id)
		writeError(w, statusFor(err), err)
		return
	}
	s.pool.InvalidateOther(id, sess)

	// Compact when the WAL has outgrown its bounds: the just-published
	// snapshot reflects every logged batch, the mutation lock keeps new
	// appends out, and a failure is retried on a later batch (recovery
	// replays the long log either way). A failure never surfaces to the
	// client — the batch is committed — but it is logged and counted:
	// a persistently failing compaction (disk full) lets the WAL grow
	// without bound, and the operator needs the signal.
	if st != nil && st.ShouldCompact() {
		if err := st.Compact(ar.Graph); err != nil {
			s.met.compactionFailures.Inc()
			log.Printf("kplistd: compacting graph %s: %v", id, err)
		} else {
			s.met.compactions.Inc()
		}
	}

	// Advance the applied-sequence counter: replica applies adopt the
	// owner's number; owner (and standalone) applies count effective
	// batches only, so the counter stays in lockstep with the WAL, which
	// never sees no-op batches either.
	newSeq := seq.Load()
	if hdrSeq > 0 {
		newSeq = hdrSeq
		seq.Store(hdrSeq)
	} else if ar.AddedEdges+ar.RemovedEdges > 0 {
		newSeq++
		seq.Store(newSeq)
	}
	w.Header().Set(SeqHeader, strconv.FormatUint(newSeq, 10))

	writeJSON(w, http.StatusOK, patchResponse{
		Graph:              id,
		Mutations:          len(muts),
		AddedEdges:         ar.AddedEdges,
		RemovedEdges:       ar.RemovedEdges,
		Rebuilt:            ar.Rebuilt,
		InvalidatedResults: ar.InvalidatedResults,
		N:                  ar.N,
		M:                  ar.M,
		Seq:                newSeq,
	})
}

// acquireChecked acquires id's pooled session and then re-checks the
// registry: a DELETE racing between the handler's registry lookup and the
// pool acquire would otherwise re-insert a session for a removed graph
// that no future request can ever hit (a leak until LRU pressure). Seeing
// the graph gone after the acquire, it invalidates the fresh entry and
// reports not-found. A pool miss opens on the registry's graph read at
// open time (falling back to the handler's snapshot if the graph vanished
// mid-open — the post-acquire re-check catches that), so a PATCH landing
// between the handler's lookup and the open never freezes a pre-mutation
// graph into the pool.
func (s *Server) acquireChecked(ctx context.Context, id string, g *kplist.Graph) (*kplist.Session, func(), error) {
	sess, release, err := s.pool.Acquire(ctx, id, func() *kplist.Graph {
		if cur, err := s.reg.Get(id); err == nil {
			return cur.G
		}
		return g
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.reg.Get(id); err != nil {
		release()
		s.pool.Invalidate(id)
		return nil, nil, err
	}
	return sess, release, nil
}

func (s *Server) handleCliques(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	qv := r.URL.Query()
	p, err := strconv.Atoi(qv.Get("p"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad or missing p: %q", qv.Get("p")))
		return
	}
	var seed int64
	if sv := qv.Get("seed"); sv != "" {
		seed, err = strconv.ParseInt(sv, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed: %q", sv))
			return
		}
	}
	truth, document, lex := qv.Get("algo") == "truth", qv.Get("stream") == "0", qv.Get("order") == "lex"
	lo, hi, err := rootRange(qv, rg.G.N())
	if err == nil && (lo > 0 || hi < rg.G.N()) && (document || truth && !lex) {
		// Only the lexicographic NDJSON streams are what a scatter leg
		// reads; a range means nothing to the other forms.
		err = errors.New("a root range needs an NDJSON stream in lexicographic order (order=lex for algo=truth)")
	}
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

	// algo=truth serves the sequential ground truth: no engine run, no
	// round bill, and with stream=1 no []Clique is ever materialized.
	if truth {
		s.serveTruthCliques(w, r, sess, id, p, document, lex, lo, hi)
		return
	}

	q := kplist.Query{P: p, Algo: kplist.Algorithm(qv.Get("algo")), Seed: seed}
	res, err := sess.QueryContext(r.Context(), q)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}

	// The result is in lex order, so the cliques rooted in [lo, hi) are
	// one sub-slice of it.
	cliques := res.Cliques
	rootedBelow := func(v int) int {
		return sort.Search(len(cliques), func(i int) bool { return int(cliques[i][0]) >= v })
	}
	cliques = cliques[rootedBelow(lo):rootedBelow(hi)]
	w.Header().Set("X-Kplist-Clique-Count", strconv.Itoa(len(cliques)))
	w.Header().Set("X-Kplist-Rounds", strconv.FormatInt(res.Rounds, 10))
	w.Header().Set("X-Kplist-Messages", strconv.FormatInt(res.Messages, 10))
	if document {
		writeJSON(w, http.StatusOK, map[string]any{
			"graph": id, "p": p, "count": len(res.Cliques),
			"rounds": res.Rounds, "messages": res.Messages,
			"cliques": res.Cliques,
		})
		return
	}

	// NDJSON: one clique per line in the result's lexicographic order, so
	// the byte stream is deterministic and never materialized whole.
	cs := newCliqueStream(w)
	for _, c := range cliques {
		if !cs.emit(c) {
			return
		}
	}
	cs.close()
}

// rootRange reads the root-vertex range [lo, hi) a scatter leg of a
// partitioned graph carries — both parameters, or neither for [0, n) —
// and checks 0 ≤ lo ≤ hi ≤ n.
func rootRange(qv url.Values, n int) (lo, hi int, err error) {
	los, his := qv.Get("lo"), qv.Get("hi")
	if los == "" && his == "" {
		return 0, n, nil
	}
	lo, errLo := strconv.Atoi(los)
	hi, errHi := strconv.Atoi(his)
	if errLo != nil || errHi != nil || lo < 0 || lo > hi || hi > n {
		return 0, 0, fmt.Errorf("bad root range lo=%q hi=%q: want integers 0 ≤ lo ≤ hi ≤ n = %d", los, his, n)
	}
	return lo, hi, nil
}

// serveTruthCliques answers /cliques?algo=truth. The document form
// (stream=0) decodes the session's memoized lexicographic ground truth.
// Both NDJSON forms are a write of the session's memoized encoding
// through writeLines: the default in the kernel's deterministic
// enumeration order (Session.GroundTruthChunks), byte-identical across
// requests on one snapshot, and with order=lex the lexicographically
// sorted listing (Session.GroundTruthLines) restricted to the cliques
// rooted in [lo, hi). Visit order depends on the graph's degeneracy
// structure, so only the lexicographic form is comparable across
// different graphs covering the same cliques — which is what the cluster
// gateway's scatter–gather concatenation needs for byte-identical output.
// A visit-order listing too large for the memo streams straight off the
// kernel's visitor through a cliqueStream instead, holding nothing.
func (s *Server) serveTruthCliques(w http.ResponseWriter, r *http.Request, sess *kplist.Session, id string, p int, document, lex bool, lo, hi int) {
	if p < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ground truth requires p ≥ 1, got %d", p))
		return
	}
	w.Header().Set("X-Kplist-Source", "ground-truth")
	if document {
		cs := sess.GroundTruth(p)
		w.Header().Set("X-Kplist-Clique-Count", strconv.Itoa(len(cs)))
		writeJSON(w, http.StatusOK, map[string]any{
			"graph": id, "p": p, "source": "ground-truth",
			"count": len(cs), "cliques": cs,
		})
		return
	}
	if lex {
		writeLines(r.Context(), w, sess.GroundTruthLines(p, lo, hi))
		return
	}
	if chunks, memoized := sess.GroundTruthChunks(p); memoized {
		writeLines(r.Context(), w, chunks...)
		return
	}
	cs := newCliqueStream(w)
	if err := sess.VisitGroundTruth(r.Context(), p, cs.emit); err != nil {
		return // headers already sent; the truncated stream is the signal
	}
	cs.close()
}

// writeLines sends an already encoded NDJSON listing on the stream
// policy: one write and one flush per graph.StreamBufferSize bytes at
// most, with the request context checked between them.
func writeLines(ctx context.Context, w http.ResponseWriter, chunks ...[]byte) {
	flusher := startNDJSON(w)
	for _, c := range chunks {
		for len(c) > 0 {
			if ctx.Err() != nil {
				return
			}
			n := min(len(c), graph.StreamBufferSize)
			if _, err := w.Write(c[:n]); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			c = c[n:]
		}
	}
}

// cliqueStream writes an NDJSON clique response, the one writer behind
// every /cliques stream: each line is Clique.AppendLine appended straight
// into the buffered writer's free space, and the buffer goes out to the
// client every graph.StreamFlushEvery lines.
type cliqueStream struct {
	bw      *bufio.Writer
	flusher http.Flusher
	lines   int
}

// startNDJSON sends the 200 NDJSON headers and returns w's flusher, if
// it has one.
func startNDJSON(w http.ResponseWriter) http.Flusher {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return flusher
}

// newCliqueStream sends the 200 NDJSON headers and returns the stream.
func newCliqueStream(w http.ResponseWriter) *cliqueStream {
	flusher := startNDJSON(w)
	return &cliqueStream{bw: bufio.NewWriterSize(w, graph.StreamBufferSize), flusher: flusher}
}

// emit writes c's line; false means the client is gone and the caller
// should stop producing.
func (cs *cliqueStream) emit(c kplist.Clique) bool {
	if cs.bw.Available() < graph.MaxLineLen(len(c)) && cs.bw.Flush() != nil {
		return false
	}
	if _, err := cs.bw.Write(c.AppendLine(cs.bw.AvailableBuffer())); err != nil {
		return false
	}
	cs.lines++
	if cs.lines%graph.StreamFlushEvery == 0 {
		if cs.bw.Flush() != nil {
			return false
		}
		if cs.flusher != nil {
			cs.flusher.Flush()
		}
	}
	return true
}

// close writes out whatever the buffer still holds.
func (cs *cliqueStream) close() { _ = cs.bw.Flush() }

// buildInfo is sampled once: the module version and VCS revision when
// the binary carries them, plus the toolchain.
var buildInfo = func() map[string]string {
	out := map[string]string{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		out["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["revision"] = kv.Value
		case "vcs.modified":
			out["dirty"] = kv.Value
		}
	}
	return out
}()

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ps := s.pool.Stats()
	resp := map[string]any{
		"status":        "ok",
		"graphs":        s.reg.Len(),
		"openSessions":  ps.Open,
		"uptimeSeconds": int64(time.Since(s.met.started).Seconds()),
		"build":         buildInfo,
	}
	if s.persist != nil {
		resp["dataDir"] = s.persist.dir
		resp["recovery"] = s.recovery
	}
	writeJSON(w, http.StatusOK, resp)
}
