package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kplist/internal/obs"
)

// admission is the load-shedding front door: at most inFlight requests
// execute concurrently, at most queueLimit more wait for a slot, and
// everything beyond that is shed with a 429 immediately — the server
// prefers a fast honest "no" over unbounded queueing. A queued request
// whose deadline expires before a slot frees leaves with 503, so queue
// time is bounded by the per-request deadline.
type admission struct {
	queueLimit int64
	deadline   time.Duration
	slots      chan struct{}
	waiting    atomic.Int64
	shed       atomic.Int64
	timedOut   atomic.Int64
}

func newAdmission(inFlight, queueLimit int, deadline time.Duration) *admission {
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	return &admission{
		queueLimit: int64(queueLimit),
		deadline:   deadline,
		slots:      make(chan struct{}, inFlight),
	}
}

// retryAfterSecs derives the Retry-After hint from live queue pressure:
// every queued request drains (or times out) within the default
// deadline, so the expected wait scales with how full the accept queue
// is — a nearly empty queue suggests a second, a full one the whole
// deadline. Clamped to [1, deadline] whole seconds.
func (a *admission) retryAfterSecs() int64 {
	limit := a.queueLimit
	if limit < 1 {
		limit = 1
	}
	waiting := a.waiting.Load()
	if waiting < 0 {
		waiting = 0
	}
	secs := (waiting*int64(a.deadline/time.Second) + limit - 1) / limit
	if max := int64(a.deadline / time.Second); secs > max {
		secs = max
	}
	if secs < 1 {
		secs = 1
	}
	return secs
}

// admit wraps h with the accept-queue discipline.
func (a *admission) admit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fast path: a free execution slot admits immediately and never
		// counts against the queue, so a burst onto an idle server is
		// admitted up to MaxInFlight before any queue accounting starts.
		select {
		case a.slots <- struct{}{}:
			defer func() { <-a.slots }()
			h.ServeHTTP(w, r)
			return
		default:
		}
		if a.waiting.Add(1) > a.queueLimit {
			a.waiting.Add(-1)
			a.shed.Add(1)
			w.Header().Set("Retry-After", strconv.FormatInt(a.retryAfterSecs(), 10))
			http.Error(w, "overloaded: accept queue full", http.StatusTooManyRequests)
			return
		}
		select {
		case a.slots <- struct{}{}:
			a.waiting.Add(-1)
			defer func() { <-a.slots }()
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
			a.waiting.Add(-1)
			a.timedOut.Add(1)
			w.Header().Set("Retry-After", strconv.FormatInt(a.retryAfterSecs(), 10))
			http.Error(w, "deadline exceeded while queued", http.StatusServiceUnavailable)
		}
	})
}

// withDeadline attaches the per-request execution deadline: the
// ?deadline_ms= override clamped to [1ms, max], else def. The deadline
// covers queueing and execution, and cancellation propagates through
// Session.QueryContext into the engine round loops.
func withDeadline(def, max time.Duration, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := def
		if s := r.URL.Query().Get("deadline_ms"); s != "" {
			ms, err := strconv.ParseInt(s, 10, 64)
			if err != nil || ms < 1 {
				http.Error(w, "bad deadline_ms", http.StatusBadRequest)
				return
			}
			// Clamp before converting: ms·Millisecond overflows int64 for
			// huge values, and a negative duration would expire instantly.
			if ms > int64(max/time.Millisecond) {
				d = max
			} else {
				d = time.Duration(ms) * time.Millisecond
			}
		}
		if d > max {
			d = max
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// metrics is the node's observability store: every family /metrics
// renders is declared once here on an obs registry, and the handlers
// increment the fields directly.
type metrics struct {
	started  time.Time
	reg      *obs.Registry
	requests *obs.Vec[obs.Counter]   // route, status
	latency  *obs.Vec[obs.Histogram] // route

	// Mutation path (PATCH /edges and the replica endpoint): applied edge
	// mutations, batches split by how the incremental engine handled them,
	// and the clique-delta (Session.Apply) latency.
	mutOps, mutIncremental, mutRebuild *obs.Counter
	mutLatency                         *obs.Histogram

	// Durability (the -data-dir path): committed WAL appends with their
	// fsync-inclusive latency, and snapshot compactions. Failed
	// compactions let the WAL grow until one succeeds, so that counter is
	// the operator's disk-pressure signal.
	walAppends, compactions, compactionFailures *obs.Counter
	walFsync                                    *obs.Histogram

	// estimates splits mode=estimate queries by the method that answered
	// (exact / hll / sample): the planner's decision mix shows whether
	// budgets actually steer work off the exact kernel.
	estimates *obs.Vec[obs.Counter]

	// Cluster: replica-apply batches accepted from a gateway; duplicates
	// (sequence-tagged replays acknowledged without re-applying) and gaps
	// (out-of-order applies refused because this replica missed batches);
	// unmarked requests refused because this node does not host the graph.
	replicaApplies, replicaDuplicates, replicaGaps, misdirected *obs.Counter
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	batches := r.CounterVec("kplistd_mutation_batches_total", "mode")
	m := &metrics{
		started:            time.Now(),
		reg:                r,
		requests:           r.CounterVec("kplistd_requests_total", "route", "status"),
		latency:            r.HistogramVec("kplistd_request_duration_seconds", "route"),
		mutOps:             r.Counter("kplistd_mutations_total"),
		mutIncremental:     batches.With("incremental"),
		mutRebuild:         batches.With("rebuild"),
		mutLatency:         r.Histogram("kplistd_mutation_apply_seconds"),
		walAppends:         r.Counter("kplistd_wal_appends_total"),
		compactions:        r.Counter("kplistd_snapshot_compactions_total"),
		compactionFailures: r.Counter("kplistd_snapshot_compaction_failures_total"),
		walFsync:           r.Histogram("kplistd_wal_fsync_seconds"),
		estimates:          r.CounterVec("kplistd_estimate_queries_total", "method"),
		replicaApplies:     r.Counter("kplistd_replica_applies_total"),
		replicaDuplicates:  r.Counter("kplistd_replica_duplicates_total"),
		replicaGaps:        r.Counter("kplistd_replica_seq_gaps_total"),
		misdirected:        r.Counter("kplistd_misdirected_total"),
	}
	r.Uptime("kplistd_uptime_seconds", m.started)
	// The three planner methods render from the first scrape, zero
	// included, so dashboards see a stable label set.
	for _, method := range []string{"exact", "hll", "sample"} {
		m.estimates.With(method)
	}
	return m
}

// statusWriter captures the response status while passing Flush through —
// the NDJSON streaming path needs the flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument records per-route counters and latency around h.
func (m *metrics) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		m.requests.With(route, strconv.Itoa(sw.status)).Inc()
		m.latency.With(route).Observe(elapsed)
	})
}
