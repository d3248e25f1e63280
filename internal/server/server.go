package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kplist"
	"kplist/internal/cluster"
)

// Config sizes the serving layer. Zero values take the documented
// defaults, so Config{} is a working single-host configuration.
type Config struct {
	// MaxGraphs bounds the registry (default 64). Registration beyond it
	// fails with 409 — graphs are tenant state and are never silently
	// dropped.
	MaxGraphs int
	// PoolSize bounds the LRU pool of open sessions (default 8): the
	// resident preprocessed working set.
	PoolSize int
	// Session configures every pooled session (per-session scheduler
	// bound, Verify, PruneByDegeneracy).
	Session kplist.SessionConfig
	// MaxInFlight bounds concurrently executing requests (default
	// 2·GOMAXPROCS); QueueLimit bounds how many more may wait for a slot
	// (default 64). Beyond both, requests shed with 429.
	MaxInFlight int
	QueueLimit  int
	// DefaultDeadline caps each admitted request's queue+execution time
	// (default 30s); ?deadline_ms= overrides per request, clamped to
	// MaxDeadline (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxUploadN and MaxUploadEdges bound registered graphs — uploaded
	// edge lists directly, generated workloads via the spec's expected
	// edge count (defaults 1<<20 vertices, 1<<23 edges); MaxBodyBytes
	// bounds the request body (default 256 MiB); MaxBatchQueries bounds
	// one query request's batch length (default 1024).
	MaxUploadN      int
	MaxUploadEdges  int
	MaxBodyBytes    int64
	MaxBatchQueries int
	// MaxMutationBatch bounds one PATCH /edges request's mutation count
	// (default 4096).
	MaxMutationBatch int
	// ClusterSelf and ClusterRing put the node in cluster mode: the node
	// builds the same consistent-hash ring as the gateway (ClusterSelf
	// must be this node's member name in it) and refuses unmarked external
	// requests for graphs it does not host with 421 Misdirected Request
	// plus an owner hint — gateway traffic carries the cluster header and
	// bypasses the check. Both empty/nil (the default) means standalone.
	ClusterSelf string
	ClusterRing *cluster.Ring
	// DataDir, when non-empty, makes the server durable: every registered
	// graph gets a snapshot file + write-ahead log under it, mutation
	// batches are logged before they are acknowledged, and Open recovers
	// the whole registry from disk on boot. Empty means fully in-memory
	// (the pre-durability behavior).
	DataDir string
	// Store tunes the per-graph durable stores (compaction thresholds,
	// fsync policy). Ignored when DataDir is empty.
	Store kplist.StoreConfig
}

func (c Config) withDefaults() Config {
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = defaultPoolSize
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxUploadN <= 0 {
		c.MaxUploadN = 1 << 20
	}
	if c.MaxUploadEdges <= 0 {
		c.MaxUploadEdges = 1 << 23
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = 1024
	}
	if c.MaxMutationBatch <= 0 {
		c.MaxMutationBatch = 4096
	}
	return c
}

// Server is the kplistd serving layer: registry + session pool + handlers
// behind admission control and instrumentation. Create with New, mount
// via Handler.
type Server struct {
	cfg  Config
	reg  *Registry
	pool *SessionPool
	adm  *admission
	met  *metrics
	mux  *http.ServeMux

	// mutLocks serializes the apply→registry-publish critical section of
	// PATCH /edges per graph ID: without it, two concurrent PATCHes could
	// commit their Registry.UpdateGraph calls in the opposite order of
	// their (session-serialized) Applies, leaving the registry holding the
	// older snapshot. Entries are dropped on DELETE; IDs never recycle.
	mutLocks sync.Map // graph ID → *sync.Mutex

	// seqs tracks each graph's applied-mutation sequence number (graph ID
	// → *atomic.Uint64): +1 per effective batch, written only under the
	// graph's mutation lock, mirrored by the WAL on durable nodes and
	// restored from it at boot. The digest endpoint exposes it so the
	// cluster can compare replica positions without replaying anything.
	seqs sync.Map

	// persist is the durable backing (nil when Config.DataDir is empty);
	// recovery describes what Open replayed at boot.
	persist  *persistence
	recovery RecoveryReport
}

// lockMutations takes id's mutation lock and returns the unlock.
func (s *Server) lockMutations(id string) func() {
	mu, _ := s.mutLocks.LoadOrStore(id, &sync.Mutex{})
	m := mu.(*sync.Mutex)
	m.Lock()
	return m.Unlock
}

// New builds a Server from cfg. With Config.DataDir set it delegates to
// Open and panics on a recovery failure — callers that persist should
// use Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New with DataDir: %v (use server.Open)", err))
	}
	return s
}

// Open builds a Server from cfg, recovering the registry from
// Config.DataDir when set: every graph the manifest lists is reopened
// from its newest valid snapshot plus a WAL-tail replay, so the server
// resumes serving exactly the mutation batches it had acknowledged.
// Close flushes and releases the durable state.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		reg:  NewRegistry(cfg.MaxGraphs),
		pool: NewSessionPool(cfg.PoolSize, cfg.Session),
		adm:  newAdmission(cfg.MaxInFlight, cfg.QueueLimit, cfg.DefaultDeadline),
		met:  newMetrics(),
	}
	if cfg.DataDir != "" {
		p, rep, err := openPersistence(cfg.DataDir, cfg.Store, s.reg)
		if err != nil {
			return nil, err
		}
		s.persist = p
		s.recovery = rep
		// Recovered graphs resume at the WAL's sequence number — exactly
		// one record per acknowledged effective batch, monotonic across
		// compactions — so digests survive restarts.
		for id, seq := range p.walSeqs() {
			s.appliedSeq(id).Store(seq)
		}
	}
	s.registerSampled()
	s.mux = http.NewServeMux()
	// Health and metrics bypass admission: they must answer precisely
	// when the serving path is saturated.
	s.route("GET /healthz", http.HandlerFunc(s.handleHealthz), false)
	s.route("GET /metrics", s.met.reg, false)
	s.route("POST /v1/graphs", s.clusterGate(http.HandlerFunc(s.handleRegister), true), true)
	s.route("GET /v1/graphs", http.HandlerFunc(s.handleList), true)
	s.route("GET /v1/graphs/{id}", s.clusterGate(http.HandlerFunc(s.handleGet), false), true)
	s.route("DELETE /v1/graphs/{id}", s.clusterGate(http.HandlerFunc(s.handleDelete), true), true)
	s.route("POST /v1/graphs/{id}/query", s.clusterGate(http.HandlerFunc(s.handleQuery), false), true)
	s.route("GET /v1/graphs/{id}/cliques", s.clusterGate(http.HandlerFunc(s.handleCliques), false), true)
	s.route("GET /v1/graphs/{id}/sketch", s.clusterGate(http.HandlerFunc(s.handleSketch), false), true)
	s.route("PATCH /v1/graphs/{id}/edges", s.clusterGate(http.HandlerFunc(s.handlePatchEdges), true), true)
	s.route("PATCH /v1/graphs/{id}/replica", http.HandlerFunc(s.handleReplicaApply), true)
	s.route("GET /v1/graphs/{id}/digest", s.clusterGate(http.HandlerFunc(s.handleDigest), false), true)
	s.route("GET /v1/graphs/{id}/export", s.clusterGate(http.HandlerFunc(s.handleExport), false), true)
	s.route("GET /v1/graphs/{id}/log", s.clusterGate(http.HandlerFunc(s.handleLog), false), true)
	return s, nil
}

// clusterGate enforces static-sharding ownership on unmarked (external)
// traffic when the node runs in cluster mode. Requests carrying the
// cluster forward header — gateway and peer traffic — pass through
// untouched; so does everything in standalone mode. For external traffic,
// writes must land on the graph's ring owner and reads on any member of
// its replica set; anything else answers 421 Misdirected Request with the
// owner's name and address, so a client talking to the wrong node learns
// where to go instead of reading a graph this node never hosts.
func (s *Server) clusterGate(h http.Handler, write bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ring := s.cfg.ClusterRing
		if ring == nil || r.Header.Get(cluster.ForwardHeader) != "" {
			h.ServeHTTP(w, r)
			return
		}
		id := r.PathValue("id")
		if id == "" {
			// POST /v1/graphs: external registration must go through the
			// gateway — node-local IDs would diverge from cluster placement.
			s.met.misdirected.Inc()
			writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
				"error": "cluster mode: register graphs through the gateway",
			})
			return
		}
		owner := ring.Owner(id)
		allowed := owner.Name == s.cfg.ClusterSelf
		if !allowed && !write {
			for _, m := range ring.ReplicaSet(id, ring.Replication()) {
				if m.Name == s.cfg.ClusterSelf {
					allowed = true
					break
				}
			}
		}
		if allowed {
			h.ServeHTTP(w, r)
			return
		}
		s.met.misdirected.Inc()
		writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
			"error":     fmt.Sprintf("graph %s is not hosted here", id),
			"owner":     owner.Name,
			"ownerAddr": owner.Addr,
		})
	})
}

// Recovery returns what boot recovery found and replayed (the zero value
// when the server is in-memory or the data dir was fresh).
func (s *Server) Recovery() RecoveryReport { return s.recovery }

// Close flushes and closes every per-graph durable store. In-memory
// servers have nothing to release; the call is then a no-op. Serve no
// requests after Close.
func (s *Server) Close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.closeAll()
}

// route mounts h at pattern with instrumentation, and (when admitted) the
// deadline + accept-queue middleware. The pattern string doubles as the
// metrics route label.
func (s *Server) route(pattern string, h http.Handler, admitted bool) {
	if admitted {
		h = withDeadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline, s.adm.admit(h))
	}
	s.mux.Handle(pattern, s.met.instrument(pattern, h))
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the session pool (experiments and tests inspect it).
func (s *Server) Pool() *SessionPool { return s.pool }

// Registry exposes the graph registry (experiments and tests inspect it).
func (s *Server) Registry() *Registry { return s.reg }

// registerSampled declares the series /metrics reads from other
// components at scrape time: registry size, pool occupancy and counters,
// admission state and, when durable, what boot recovery replayed.
func (s *Server) registerSampled() {
	r := s.met.reg
	r.GaugeFunc("kplistd_graphs", func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("kplistd_pool_capacity", func() float64 { return float64(s.cfg.PoolSize) })
	r.GaugeFunc("kplistd_pool_open_sessions", func() float64 { return float64(s.pool.Stats().Open) })
	r.CounterFunc("kplistd_pool_hits_total", func() float64 { return float64(s.pool.Stats().Hits) })
	r.CounterFunc("kplistd_pool_misses_total", func() float64 { return float64(s.pool.Stats().Misses) })
	r.CounterFunc("kplistd_pool_evictions_total", func() float64 { return float64(s.pool.Stats().Evictions) })
	r.CounterFunc("kplistd_session_queries_total", func() float64 { return float64(s.pool.Stats().SessionQueries) })
	r.CounterFunc("kplistd_session_cache_hits_total", func() float64 { return float64(s.pool.Stats().SessionHits) })
	r.CounterFunc("kplistd_session_cache_misses_total", func() float64 { return float64(s.pool.Stats().SessionMisses) })
	r.CounterFunc("kplistd_admission_shed_total", func() float64 { return float64(s.adm.shed.Load()) })
	r.CounterFunc("kplistd_admission_queue_timeouts", func() float64 { return float64(s.adm.timedOut.Load()) })
	r.GaugeFunc("kplistd_admission_waiting", func() float64 { return float64(s.adm.waiting.Load()) })
	r.GaugeFunc("kplistd_admission_inflight_capacity", func() float64 { return float64(s.cfg.MaxInFlight) })
	if s.persist != nil {
		rep := s.recovery
		r.GaugeFunc("kplistd_persistence_enabled", func() float64 { return 1 })
		r.GaugeFunc("kplistd_recovery_duration_seconds", func() float64 { return rep.Elapsed.Seconds() })
		r.GaugeFunc("kplistd_recovery_graphs", func() float64 { return float64(rep.Graphs) })
		r.GaugeFunc("kplistd_recovery_wal_records_replayed", func() float64 { return float64(rep.WALRecordsReplayed) })
	}
}
