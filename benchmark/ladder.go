package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"kplist"
	"kplist/internal/cluster"
	"kplist/internal/graph"
)

// The layer ladder replays a workload's typical requests on every rung of
// the paths its mix sends them down, after the window and on the stack
// the window ran on, so the difference between two rungs is the cost of
// the layer between them. A workload runs only the rung groups of its own
// paths (workload.rungs). Every traced run prints every per-layer metric,
// so the metrics of the groups a workload does not run read 0.
//
// In the window every request shares the host with the other client's, so
// the ladder runs beside one of the window's clients, which keeps sending
// its mix; rungs timed alone would not add up to the window's latencies.
// A group's rungs run interleaved, one call of each per round, so every
// rung meets the same host conditions and the differences between rungs
// are the layers' and not the host's.
type rungGroup int

const (
	// rungsStream: Graph.VisitCliques, Session.VisitGroundTruth, the node's
	// stream handler into memory, the stream over loopback.
	rungsStream rungGroup = iota
	// rungsQueryHit: Session.QueryContext answered from the result cache.
	rungsQueryHit
	// rungsQueryMiss: Graph.Degeneracy (the peel every session open pays)
	// and Session.QueryContext on fresh sessions.
	rungsQueryMiss
	// rungsEstimate: Session.Estimate on a maintained sketch.
	rungsEstimate
	// rungsWrite: DynGraph.ApplyBatch, Session.Apply,
	// GraphStore.AppendBatch with fsync, the node's PATCH handler into
	// memory.
	rungsWrite
	// rungsCluster: the lex stream from its owner, the same through the
	// gateway, the scatter of the partitioned copy, and a PATCH through the
	// gateway with its replica fan-out.
	rungsCluster
	numRungGroups
)

type nameUnit struct{ name, unit string }

// rungMetrics lists each group's metrics with their units.
var rungMetrics = [numRungGroups][]nameUnit{
	rungsStream: {{"graph.visit_ms", "ms"}, {"kplist.visit_ms", "ms"}, {"server.handler_ms", "ms"},
		{"server.encode_ms", "ms"}, {"transport.loopback_ms", "ms"}, {"transport.client_ms", "ms"}},
	rungsQueryHit:  {{"kplist.query_hit_us", "us"}},
	rungsQueryMiss: {{"graph.peel_ms", "ms"}, {"kplist.query_miss_ms", "ms"}},
	rungsEstimate:  {{"sketch.warm_estimate_us", "us"}},
	rungsWrite: {{"graph.apply_us", "us"}, {"kplist.session_apply_us", "us"}, {"store.append_us", "us"},
		{"server.patch_ms", "ms"}},
	rungsCluster: {{"cluster.owner_lex_ms", "ms"}, {"cluster.lex_ms", "ms"}, {"cluster.gateway_self_ms.lex", "ms"},
		{"cluster.scatter_ms", "ms"}, {"cluster.gateway_self_ms.scatter", "ms"}, {"cluster.leg_ms", "ms"},
		{"cluster.legs_per_request.scatter", "count"}, {"cluster.patch_ms", "ms"}, {"cluster.replica_ack_ms", "ms"}},
}

// A group runs at least minRounds and at most maxRounds rounds, and stops
// after groupBudget once it has its minimum.
const (
	groupBudget = 3 * time.Second
	minRounds   = 3
	maxRounds   = 41
)

// rung is one timed call in round i.
type rung func(i int) time.Duration

// rounds runs the rungs interleaved for at most n rounds and returns each
// rung's median.
func rounds(n int, rungs ...rung) []time.Duration {
	ds := make([][]time.Duration, len(rungs))
	start := time.Now()
	for i := 0; i < min(n, maxRounds); i++ {
		if i >= minRounds && time.Since(start) > groupBudget {
			break
		}
		for j, fn := range rungs {
			ds[j] = append(ds[j], fn(i))
		}
	}
	out := make([]time.Duration, len(rungs))
	for j, d := range ds {
		slices.Sort(d)
		out[j] = d[len(d)/2]
	}
	return out
}

// timed is a rung that times fn.
func timed(fn func()) rung {
	return func(int) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// discardWriter is an in-memory ResponseWriter that keeps only the byte
// count: the handler rungs measure serving without a socket.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discardWriter) WriteHeader(s int) { d.status = s }
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(b))
	return len(b), nil
}
func (d *discardWriter) Flush() {}

// ladder is one run of the layer ladder.
type ladder struct {
	r   *runner
	m   map[string]metric
	hc  *http.Client
	dg  *digester
	buf []byte
}

// runLadder runs the workload's rung groups, traced, beside the window's
// last client, and returns every per-layer rung metric plus the spans.
func (r *runner) runLadder() (map[string]metric, []span, error) {
	l := &ladder{r: r, m: map[string]metric{}, hc: newClientHTTP(), dg: newDigester(), buf: make([]byte, 64<<10)}
	for _, group := range rungMetrics {
		for _, nu := range group {
			l.m[nu.name] = metric{0, nu.unit}
		}
	}
	stop := r.background(r.clients[numClients-1])
	r.tr.take()
	r.tr.on.Store(true)
	var err error
	for _, g := range r.p.w.rungs {
		switch g {
		case rungsStream:
			l.stream()
		case rungsQueryHit:
			l.queryHit()
		case rungsQueryMiss:
			l.queryMiss()
		case rungsEstimate:
			l.estimate()
		case rungsWrite:
			err = l.write()
		case rungsCluster:
			err = l.cluster()
		}
		if err != nil {
			break
		}
	}
	r.tr.on.Store(false)
	stop()
	spans := r.tr.take()
	if err != nil {
		return nil, nil, err
	}
	l.spanMetrics(spans)
	return l.m, spans, nil
}

// background runs c's closed loop until the returned stop is called; stop
// waits for its last request and counts its outcome in c's totals.
func (r *runner) background(c *client) (stop func()) {
	c.resetWindow()
	var halt atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.loop(func() bool { return !halt.Load() })
	}()
	return func() {
		halt.Store(true)
		<-done
		c.attemptedTotal += int64(len(c.samples))
		c.failedTotal += c.failed
		c.resetWindow()
	}
}

func (l *ladder) set(name string, v float64) {
	m, ok := l.m[name]
	if !ok {
		panic("ladder metric " + name + " is not in rungMetrics")
	}
	m.Value = v
	l.m[name] = m
}

// check counts a rung's verification; a rung whose call fails fails the
// run, since its time would mean nothing.
func (l *ladder) check(rung string, err error) {
	if err != nil {
		err = fmt.Errorf("ladder %s: %w", rung, err)
	}
	l.r.check(err)
}

func keepVisiting(kplist.Clique) bool { return true }

func (l *ladder) stream() {
	r := l.r
	gi := r.p.ladderInput
	in := r.p.inputs[gi]
	sess := kplist.NewSession(in.g, kplist.SessionConfig{})
	defer sess.Close()
	n := r.hostsOf(gi)[0]
	path := "/v1/graphs/" + r.ids[gi] + "/cliques?p=4&algo=truth"
	d := rounds(maxRounds,
		timed(func() { in.g.VisitCliques(streamP, func(kplist.Clique) {}) }),
		timed(func() {
			l.check("Session.VisitGroundTruth", sess.VisitGroundTruth(context.Background(), streamP, keepVisiting))
		}),
		timed(func() {
			w := &discardWriter{}
			n.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.status != http.StatusOK || w.n != in.visit.Bytes {
				l.check("stream handler", fmt.Errorf("status %d, %d bytes, want %d", w.status, w.n, in.visit.Bytes))
			}
		}),
		timed(func() { l.get("loopback", n.url+path, nil, in.visit) }),
	)
	l.set("graph.visit_ms", msOf(d[0]))
	l.set("kplist.visit_ms", msOf(d[1]))
	l.set("server.handler_ms", msOf(d[2]))
	l.set("server.encode_ms", msOf(d[2]-d[1]))
	l.set("transport.loopback_ms", msOf(d[3]))
}

func (l *ladder) queryHit() {
	r := l.r
	in := r.p.inputs[r.p.ladderInput]
	sess := kplist.NewSession(in.g, kplist.SessionConfig{})
	defer sess.Close()
	var rungs []rung
	for _, q := range r.p.ladderKeys {
		query := func() {
			_, err := sess.QueryContext(context.Background(), q)
			l.check("Session.QueryContext", err)
		}
		query() // fills the result cache
		rungs = append(rungs, timed(query))
	}
	var hit time.Duration
	for _, d := range rounds(maxRounds, rungs...) {
		hit += d
	}
	l.set("kplist.query_hit_us", usOf(hit)/float64(len(rungs)))
}

func (l *ladder) queryMiss() {
	r := l.r
	in := r.p.inputs[r.p.ladderInput]
	rungs := []rung{timed(func() { in.g.Degeneracy() })}
	for _, q := range r.p.ladderKeys {
		rungs = append(rungs, func(int) time.Duration {
			// The session opens outside the timed call: the rung is the
			// query, the peel has its own.
			sess := kplist.NewSession(in.g, kplist.SessionConfig{})
			defer sess.Close()
			t0 := time.Now()
			res, err := sess.QueryContext(context.Background(), q)
			d := time.Since(t0)
			if err == nil && int64(len(res.Cliques)) != in.counts[q.P] {
				err = fmt.Errorf("%+v: %d cliques, want %d", q, len(res.Cliques), in.counts[q.P])
			}
			l.check("Session.QueryContext", err)
			return d
		})
	}
	d := rounds(maxRounds, rungs...)
	var miss time.Duration
	for _, x := range d[1:] {
		miss += x
	}
	l.set("graph.peel_ms", msOf(d[0]))
	l.set("kplist.query_miss_ms", msOf(miss)/float64(len(d)-1))
}

func (l *ladder) estimate() {
	r := l.r
	in := r.p.inputs[r.p.ladderInput]
	sess := kplist.NewSession(in.g, kplist.SessionConfig{})
	defer sess.Close()
	req := kplist.EstimateRequest{P: streamP, Method: kplist.EstimateHLL, Eps: estimateEps, Conf: estimateConf,
		Seed: in.sketchSeed}
	estimate := func() {
		res, err := sess.Estimate(context.Background(), req)
		if err == nil && res.Estimate != in.hllEst {
			err = fmt.Errorf("estimate %v, want %v", res.Estimate, in.hllEst)
		}
		l.check("Session.Estimate", err)
	}
	estimate() // builds the sketch the rung reads
	l.set("sketch.warm_estimate_us", usOf(rounds(maxRounds, timed(estimate))[0]))
}

// write replays the start of the first write graph's trace, batch i in
// round i, on every write rung, each on a copy of its own.
func (l *ladder) write() error {
	r := l.r
	gi := r.p.writer[0]
	in := r.p.inputs[gi]
	batches := in.trace[:min(maxRounds, len(in.trace))]
	perBatch := func(rung string, fn func(b []kplist.Mutation) error) rung {
		return func(i int) time.Duration {
			t0 := time.Now()
			err := fn(batches[i])
			d := time.Since(t0)
			l.check(rung, err)
			return d
		}
	}

	dyn := graph.NewDynGraph(in.g, graph.DynConfig{})
	sess := kplist.NewSession(in.g, kplist.SessionConfig{})
	defer sess.Close()
	gs, err := kplist.CreateGraphStore(filepath.Join(r.scratch, "ladder-store"), in.g, kplist.StoreConfig{})
	if err != nil {
		return err
	}
	// The PATCH handler runs on a copy registered directly on a node that
	// holds the graph, so it pays the same WAL as the window's patches.
	n := r.hostsOf(gi)[0]
	id, err := l.registerCopy(n.url, in, "ladder-patch")
	if err != nil {
		gs.Close()
		return err
	}
	d := rounds(len(batches),
		perBatch("DynGraph.ApplyBatch", func(b []kplist.Mutation) error {
			_, err := dyn.ApplyBatch(b)
			return err
		}),
		perBatch("Session.Apply", func(b []kplist.Mutation) error {
			_, err := sess.Apply(context.Background(), b)
			return err
		}),
		perBatch("GraphStore.AppendBatch", gs.AppendBatch),
		perBatch("PATCH handler", func(b []kplist.Mutation) error {
			req := httptest.NewRequest(http.MethodPatch, "/v1/graphs/"+id+"/edges", bytes.NewReader(patchBody(nil, b)))
			req.Header.Set(cluster.ForwardHeader, "1")
			w := httptest.NewRecorder()
			n.srv.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", w.Code, w.Body.Bytes())
			}
			return nil
		}),
	)
	l.set("graph.apply_us", usOf(d[0]))
	l.set("kplist.session_apply_us", usOf(d[1]))
	l.set("store.append_us", usOf(d[2]))
	l.set("server.patch_ms", msOf(d[3]))
	if err := gs.Close(); err != nil {
		return err
	}
	return l.deleteCopy(n.url, id)
}

func (l *ladder) cluster() error {
	r := l.r
	gi := r.p.ladderInput
	in := r.p.inputs[gi]
	owner := r.hostsOf(gi)[0]
	gw := r.st.gwURL
	lexPath := "/v1/graphs/" + r.ids[gi] + "/cliques?p=4&algo=truth&order=lex"
	win := r.p.inputs[r.p.writer[0]]
	id, err := l.registerCopy(gw, win, "")
	if err != nil {
		return err
	}
	batches := win.trace[:min(maxRounds, len(win.trace))]
	d := rounds(len(batches),
		timed(func() { l.get("owner-lex", owner.url+lexPath, forwardHeader(), in.lex) }),
		timed(func() { l.get("lex", gw+lexPath, nil, in.lex) }),
		timed(func() { l.get("scatter", gw+"/v1/graphs/"+r.pids[gi]+"/cliques?p=4&algo=truth", nil, in.lex) }),
		func(i int) time.Duration {
			t0 := time.Now()
			l.patch(gw+"/v1/graphs/"+id+"/edges", batches[i])
			return time.Since(t0)
		},
	)
	l.set("cluster.owner_lex_ms", msOf(d[0]))
	l.set("cluster.lex_ms", msOf(d[1]))
	l.set("cluster.scatter_ms", msOf(d[2]))
	l.set("cluster.patch_ms", msOf(d[3]))
	return l.deleteCopy(gw, id)
}

// spanMetrics derives the rungs that come from spans: the transport of the
// loopback stream (the client's wait minus the node's time outside its
// socket writes), the gateway's self time per route, the scatter's legs
// and the replica leg of a gateway patch. Rungs a workload did not run
// have no spans and stay 0.
func (l *ladder) spanMetrics(spans []span) {
	set := indexSpans(spans)
	var transport, lexSelf, scSelf, legs, legsPer, replica []float64
	for _, sp := range spans {
		if sp.Kind != "client" {
			continue
		}
		root, ok := set.firstChild(sp)
		if !ok {
			continue
		}
		switch sp.Name {
		case "loopback":
			transport = append(transport, msOf(sp.dur()-root.serve()))
		case "lex":
			lexSelf = append(lexSelf, msOf(set.selfTime(root)))
		case "scatter":
			scSelf = append(scSelf, msOf(set.selfTime(root)))
			n := 0
			for _, leg := range set[root.ID] {
				if leg.Kind == "leg" {
					legs = append(legs, msOf(leg.dur()))
					n++
				}
			}
			legsPer = append(legsPer, float64(n))
		case "patch":
			for _, leg := range set[root.ID] {
				if leg.Kind == "leg" && leg.Route == "replica" {
					replica = append(replica, msOf(leg.dur()))
				}
			}
		}
	}
	l.set("transport.client_ms", median(transport))
	l.set("cluster.gateway_self_ms.lex", median(lexSelf))
	l.set("cluster.gateway_self_ms.scatter", median(scSelf))
	l.set("cluster.leg_ms", median(legs))
	l.set("cluster.legs_per_request.scatter", mean(legsPer))
	l.set("cluster.replica_ack_ms", median(replica))
}

// registerCopy registers in once more at base (a node or the gateway),
// under id when it is not empty, and returns the graph ID.
func (l *ladder) registerCopy(base string, in *input, id string) (string, error) {
	body := in.body
	var hdr http.Header
	if id != "" {
		body = append([]byte(`{"id":`+strconv.Quote(id)+`,`), in.body[1:]...)
		hdr = forwardHeader()
	}
	var meta struct {
		ID string `json:"id"`
	}
	if _, err := call(context.Background(), l.r.ctl, http.MethodPost, base+"/v1/graphs", body, hdr, &meta); err != nil {
		return "", fmt.Errorf("ladder copy of %s: %w", in.label, err)
	}
	return meta.ID, nil
}

func (l *ladder) deleteCopy(base, id string) error {
	_, err := call(context.Background(), l.r.ctl, http.MethodDelete, base+"/v1/graphs/"+id, nil, forwardHeader(), nil)
	return err
}

// do sends one request under a client span named after the rung.
func (l *ladder) do(rung, method, url string, body []byte, hdr http.Header) (*http.Response, func(), error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	tr := l.r.tr
	id := tr.next.Add(1)
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := tr.now()
	resp, err := l.hc.Do(req)
	end := func() {
		tr.add(span{ID: id, Kind: "client", Name: rung, Route: routeOf(req), Start: start, End: tr.now()})
	}
	if err != nil {
		end()
		return nil, nil, err
	}
	return resp, end, nil
}

// get streams url to its last byte and checks it against want.
func (l *ladder) get(rung, url string, hdr http.Header, want digest) {
	resp, end, err := l.do(rung, http.MethodGet, url, nil, hdr)
	if err != nil {
		l.check(rung, err)
		return
	}
	l.dg.reset()
	_, err = io.CopyBuffer(l.dg, resp.Body, l.buf)
	resp.Body.Close()
	end()
	if err == nil && (resp.StatusCode != http.StatusOK || l.dg.sum() != want) {
		err = fmt.Errorf("status %d, stream %+v, want %+v", resp.StatusCode, l.dg.sum(), want)
	}
	l.check(rung, err)
}

func (l *ladder) patch(url string, batch []kplist.Mutation) {
	resp, end, err := l.do("patch", http.MethodPatch, url, patchBody(nil, batch), nil)
	if err != nil {
		l.check("gateway patch", err)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end()
	if err == nil && (resp.StatusCode != http.StatusOK || resp.Header.Get(replicaAcksHeader) != "1") {
		err = fmt.Errorf("status %d, replica acks %q: %s", resp.StatusCode, resp.Header.Get(replicaAcksHeader), raw)
	}
	l.check("gateway patch", err)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
