package cluster

import (
	"strconv"
	"time"

	"kplist/internal/obs"
)

// Metrics is the gateway-side observability store: per-member request /
// error / latency, replication fan-out outcomes, failover and
// scatter–gather counters. Every family the gateway's /metrics renders
// is declared once here on an obs registry, and the client increments
// the fields directly.
type Metrics struct {
	reg      *obs.Registry
	requests *obs.Vec[obs.Counter]   // member, status ("error" = transport failure)
	latency  *obs.Vec[obs.Histogram] // member

	failoverReads   *obs.Counter // reads answered by a non-owner replica
	retries         *obs.Counter // candidate attempts beyond the first
	replicaAcks     *obs.Counter // successful replica fan-out applies
	replicaFailures *obs.Counter // failed replica fan-out applies (the lag counter)
	scatterRequests *obs.Counter // scatter–gather listings served
	scatterLines    *obs.Counter // merged NDJSON lines across all scatters
	unroutable      *obs.Counter // requests refused because no candidate answered

	// Approximate-tier counters (DESIGN.md §14): merged sketch answers
	// served by the gateway, and the per-shard sketch fetches behind them.
	sketchMerges       *obs.Counter
	sketchShardFetches *obs.Counter

	// Self-healing replication counters (DESIGN.md §13).
	hintsQueued       *obs.Counter // batches queued for a downed replica
	hintsReplayed     *obs.Counter // queued batches delivered after recovery
	hintsDropped      *obs.Counter // batches lost to queue overflow (replica went dirty)
	divergence        *obs.Counter // (replica, graph) pairs newly detected out of sync
	repairs           *obs.Counter // full-state transfers completed
	repairFailures    *obs.Counter // full-state transfers that did not complete
	sweeps            *obs.Counter // anti-entropy sweep passes
	notFoundReprobes  *obs.Counter // 404 reads re-probed on the same member
	notFoundRecovered *obs.Counter // re-probes that got a non-404 answer
}

// newMetrics declares the gateway's families, including the ring and
// member-health gauges sampled from c at scrape time.
func newMetrics(c *Client) *Metrics {
	r := obs.NewRegistry()
	r.Uptime("kplistgw_uptime_seconds", time.Now())
	r.GaugeFunc("kplistgw_ring_members", func() float64 { return float64(len(c.cfg.Members)) })
	r.GaugeFunc("kplistgw_ring_vnodes", func() float64 { return float64(c.cfg.VNodes * len(c.cfg.Members)) })
	r.GaugeFunc("kplistgw_ring_replication", func() float64 { return float64(c.cfg.Replication) })
	r.GaugeFunc("kplistgw_partitioned_graphs", func() float64 { return float64(len(c.PartitionedIDs())) })
	r.GaugeFunc("kplistgw_dirty_replicas", func() float64 { return float64(c.hints.dirtyCount()) })
	for _, m := range c.ring.Members() {
		name := m.Name
		r.GaugeFunc("kplistgw_member_up", func() float64 {
			if c.MemberUp(name) {
				return 1
			}
			return 0
		}, "member", name)
		r.GaugeFunc("kplistgw_hint_queue_depth", func() float64 { return float64(c.hints.depth(name)) }, "member", name)
	}
	return &Metrics{
		reg:                r,
		requests:           r.CounterVec("kplistgw_member_requests_total", "member", "status"),
		latency:            r.HistogramVec("kplistgw_member_request_duration_seconds", "member"),
		failoverReads:      r.Counter("kplistgw_failover_reads_total"),
		retries:            r.Counter("kplistgw_retries_total"),
		replicaAcks:        r.Counter("kplistgw_replica_acks_total"),
		replicaFailures:    r.Counter("kplistgw_replication_lag_batches"),
		scatterRequests:    r.Counter("kplistgw_scatter_requests_total"),
		scatterLines:       r.Counter("kplistgw_scatter_merged_lines_total"),
		unroutable:         r.Counter("kplistgw_unroutable_total"),
		sketchMerges:       r.Counter("kplistgw_sketch_merges_total"),
		sketchShardFetches: r.Counter("kplistgw_sketch_shard_fetches_total"),
		hintsQueued:        r.Counter("kplistgw_hints_queued_total"),
		hintsReplayed:      r.Counter("kplistgw_hints_replayed_total"),
		hintsDropped:       r.Counter("kplistgw_hints_dropped_total"),
		divergence:         r.Counter("kplistgw_divergence_detected_total"),
		repairs:            r.Counter("kplistgw_repairs_total"),
		repairFailures:     r.Counter("kplistgw_repair_failures_total"),
		sweeps:             r.Counter("kplistgw_antientropy_sweeps_total"),
		notFoundReprobes:   r.Counter("kplistgw_notfound_reprobes_total"),
		notFoundRecovered:  r.Counter("kplistgw_notfound_reprobes_recovered_total"),
	}
}

// record accounts one forwarded request to member; status 0 means the
// transport failed before any response.
func (m *Metrics) record(member string, status int, elapsed time.Duration) {
	label := "error"
	if status != 0 {
		label = strconv.Itoa(status)
	}
	m.requests.With(member, label).Inc()
	m.latency.With(member).Observe(elapsed)
}

// Repairs returns the cumulative completed full-state transfers (tests
// and the convergence harness assert on it).
func (m *Metrics) Repairs() int64 { return m.repairs.Load() }
