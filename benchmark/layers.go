package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// counters is one scrape of every node's and the gateway's /metrics plus
// each node's session-pool counters, summed across nodes.
type counters map[string]float64

// scrape reads the counters the per-layer metrics diff across the traced
// window. A scrape that fails counts as a failed check.
func (r *runner) scrape() counters {
	c := counters{}
	for _, n := range r.st.nodes {
		r.scrapeInto(c, n.url+"/metrics")
		ps := n.srv.Pool().Stats()
		c["pool.hits"] += float64(ps.Hits)
		c["pool.misses"] += float64(ps.Misses)
		c["pool.evictions"] += float64(ps.Evictions)
		c["session.queries"] += float64(ps.SessionQueries)
		c["session.hits"] += float64(ps.SessionHits)
	}
	if r.st.gwURL != "" {
		r.scrapeInto(c, r.st.gwURL+"/metrics")
	}
	return c
}

func (r *runner) scrapeInto(c counters, url string) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := r.ctl.Do(req)
	if err != nil {
		r.check(err)
		return
	}
	defer resp.Body.Close()
	parseProm(resp.Body, c)
}

// parseProm adds every sample of a Prometheus text exposition into c,
// keyed by the series name with its labels.
func parseProm(rd io.Reader, c counters) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] += v
		}
	}
}

// ratio is num/den, or 0 when nothing happened; each ratio is reported
// next to its base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of the traced window: tracing
// overhead, span-derived transport and self times, and counter diffs. The
// metrics the post-window checks measure start at 0 and are filled in
// there on the workloads that have them.
func (r *runner) layerMetrics(untraced, traced windowStats, before, after counters, spans []span) map[string]metric {
	d := func(k string) float64 { return after[k] - before[k] }
	set := indexSpans(spans)
	var transport, rootSelf, legsPer []float64
	orphans := 0
	for _, sp := range spans {
		switch sp.Kind {
		case "client":
			if root, ok := set.firstChild(sp); ok {
				transport = append(transport, msOf(sp.dur()-root.serve()))
				rootSelf = append(rootSelf, msOf(set.selfTime(root)))
			}
		case "gateway":
			if sp.Parent != 0 {
				legsPer = append(legsPer, float64(len(set[sp.ID])))
			}
		case "leg":
			if sp.Parent == 0 {
				orphans++
			}
		}
	}
	acquires := d("pool.hits") + d("pool.misses")
	return map[string]metric{
		"trace.ops_per_s":                 {traced.opsPerSec(), "1/s"},
		"trace.overhead_ratio":            {ratio(untraced.opsPerSec(), traced.opsPerSec()), "ratio"},
		"transport.request_ms":            {median(transport), "ms"},
		"server.root_self_ms":             {median(rootSelf), "ms"},
		"cluster.legs_per_request":        {mean(legsPer), "count"},
		"cluster.orphan_legs":             {float64(orphans), "count"},
		"server.pool_acquires":            {acquires, "count"},
		"server.pool_hit_ratio":           {ratio(d("pool.hits"), acquires), "ratio"},
		"server.pool_evictions":           {d("pool.evictions"), "count"},
		"kplist.session_queries":          {d("session.queries"), "count"},
		"kplist.session_hit_ratio":        {ratio(d("session.hits"), d("session.queries")), "ratio"},
		"kplist.apply_ms":                 {1000 * ratio(d("kplistd_mutation_apply_seconds_sum"), d("kplistd_mutation_apply_seconds_count")), "ms"},
		"kplist.invalidated_per_patch":    {ratio(float64(traced.invalidated), float64(traced.patches)), "count"},
		"store.wal_append_ms":             {1000 * ratio(d("kplistd_wal_fsync_seconds_sum"), d("kplistd_wal_fsync_seconds_count")), "ms"},
		"store.appends":                   {d("kplistd_wal_appends_total"), "count"},
		"store.compactions":               {d("kplistd_snapshot_compactions_total"), "count"},
		"store.bytes_per_user_byte":       {0, "ratio"},
		"store.recovery_ms":               {0, "ms"},
		"store.recovery_replayed_records": {0, "count"},
		"cluster.retries":                 {d("kplistgw_retries_total"), "count"},
		"cluster.failover_reads":          {d("kplistgw_failover_reads_total"), "count"},
		"cluster.hints_queued":            {d("kplistgw_hints_queued_total"), "count"},
	}
}
