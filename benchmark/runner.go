package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kplist"
	"kplist/internal/bench"
	"kplist/internal/graph"
	"kplist/internal/server"
)

// A run sets the system up at least minSetups times, and more until
// setupBudget is spent (at most maxSetups); setup_s is the median, and the
// last set-up serves the timed window. The durable node's set-up takes
// about 15 ms, mostly fsyncs on a shared disk, so it needs many more
// repetitions than the cluster's 1.5 s for a steady median.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 3 * time.Second
)

// placementCandidates is how many partitioned registrations a set-up
// makes of a graph; it keeps the one whose scatter work is the median.
// The gateway mints graph IDs at random, and the ID fixes the vertex
// partition and which member owns each clique signature, so one draw
// moves scatter time by ±20%. The median of five draws is a typical
// placement, and it follows the distribution if partitioning changes.
const placementCandidates = 5

// recoveryCycles is how many close-then-reopen cycles the durable
// workload times after its window.
const recoveryCycles = 3

// runner holds one workload run's state inside the child process.
type runner struct {
	cfg     config
	p       *plan
	scratch string
	ctl     *http.Client
	st      *stack
	tr      *tracer
	skew    int64

	ids     []string // input index → graph ID
	pids    []string // input index → partitioned graph ID
	place   []placement
	clients []*client

	mu       sync.Mutex
	failures []string
	failed   int64 // failed checks outside the client loop
	checks   int64
}

// placement records where the cluster put a graph. Graph IDs are random,
// so placement differs run to run and explains part of the spread.
type placement struct {
	Graph      string         `json:"graph"`
	ID         string         `json:"id"`
	Owner      string         `json:"owner,omitempty"`
	Replicas   []string       `json:"replicas,omitempty"`
	ShardEdges map[string]int `json:"shardEdges,omitempty"`
	// ScatterWork is Σ shard p-cliques / the graph's p-cliques of the kept
	// registration, Candidates that of every registration drawn.
	ScatterWork float64   `json:"scatterWork,omitempty"`
	Candidates  []float64 `json:"candidates,omitempty"`
}

// hostInfo is what the numbers were measured on.
type hostInfo struct {
	bench.HostFingerprint
	Fsync string `json:"fsync"`
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// failOp counts a failed check of a request the client loop already
// counted as attempted.
func (r *runner) failOp(err error) {
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
	r.fail(err)
}

// check counts one verification outside the client loop.
func (r *runner) check(err error) {
	r.mu.Lock()
	r.checks++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
	}
}

// runWorkload is the child process: plan, set up, measure, verify.
func runWorkload(cfg config) (record, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return record{}, fmt.Errorf("unknown workload %q (known: %v)", cfg.workload, workloadNames())
	}
	p, err := buildPlan(w, cfg.seed, cfg.tiny)
	if err != nil {
		return record{}, fmt.Errorf("building inputs: %w", err)
	}
	r := &runner{cfg: cfg, p: p, ctl: &http.Client{Transport: &http.Transport{}},
		scratch: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if cfg.corrupt {
		r.skew = 1
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	defer os.RemoveAll(r.scratch)
	defer func() {
		if r.st != nil {
			r.st.close()
		}
	}()

	var setups []float64
	var spent time.Duration
	for i := 0; ; i++ {
		final := i == maxSetups-1 || (i >= minSetups-1 && spent >= setupBudget)
		runtime.GC()
		if final {
			// The peak RSS is the serving system's: the set-up that serves
			// the window and the window itself, not the input generation
			// or the set-ups discarded before it.
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		t0 := time.Now()
		if err := r.setup(i); err != nil {
			return record{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		spent += took
		if final {
			break
		}
		r.ctl.CloseIdleConnections()
		if err := r.st.close(); err != nil {
			return record{}, fmt.Errorf("closing set-up %d: %w", i, err)
		}
		r.st = nil
		os.RemoveAll(filepath.Join(r.scratch, fmt.Sprintf("setup%d", i)))
	}

	for i := 0; i < numClients; i++ {
		r.clients = append(r.clients, newClient(r, i, p.clients[i]))
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:   hostInfo{HostFingerprint: bench.Fingerprint(), Fsync: "per-batch"},
		Setups: setups, Placement: r.place, Info: map[string]any{}}
	if !w.durable && !w.cluster {
		rec.Host.Fsync = "none (in-memory)"
	}

	var metrics map[string]metric
	if !cfg.trace {
		ws := r.runWindow(window)
		metrics = ws.endToEnd()
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["rss_peak_mb"] = metric{peakRSSMiB(), "MiB"}
		rec.Samples = ws.sampleCounts()
		rec.Info["latency"] = ws.kindSummary()
	} else {
		untraced := r.runWindow(window / 2)
		before := r.scrape()
		r.tr.on.Store(true)
		traced := r.runWindow(window / 2)
		r.tr.on.Store(false)
		after := r.scrape()
		spans := r.tr.take()
		metrics = r.layerMetrics(untraced, traced, before, after, spans)
		rec.Samples = traced.sampleCounts()
		lad, ladSpans, err := r.runLadder()
		if err != nil {
			return record{}, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range lad {
			metrics[k] = v
		}
		var stream []float64
		for _, s := range untraced.samples {
			if s.ok && s.kind == opStream && s.graph == p.ladderInput {
				stream = append(stream, s.ms)
			}
		}
		if len(stream) > 0 {
			// What the stream rungs account for of the window's stream p50
			// on the ladder's input.
			sum := lad["graph.visit_ms"].Value + lad["server.encode_ms"].Value + lad["transport.client_ms"].Value
			rec.Info["streamP50Ms"], rec.Info["ladderStreamMs"] = median(stream), sum
		}
		path := cfg.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		}
		if err := writeSpans(path, spans, ladSpans); err != nil {
			return record{}, fmt.Errorf("writing spans: %w", err)
		}
		rec.Info["spans"] = path
	}

	// Post-window checks: user bytes and data-dir bytes first, then the
	// write-path replay, then recovery, which restarts the durable node.
	if w.durable || w.cluster {
		var user int64
		var acked []int
		for _, c := range r.clients {
			user += c.ackBytes
			acked = append(acked, c.acked)
		}
		rec.Info["ackedBatches"] = acked
		var disk int64
		for _, n := range r.st.nodes {
			disk += dirBytes(n.cfg.DataDir)
		}
		rec.Info["dataDirBytes"], rec.Info["userBytes"] = disk, user
		if cfg.trace && user > 0 {
			metrics["store.bytes_per_user_byte"] = metric{float64(disk) / float64(user), "ratio"}
		}
	}
	r.verifyWrites()
	if w.durable {
		replayed, secs := r.verifyRecovery()
		rec.Info["recoverySeconds"] = secs
		if cfg.trace {
			metrics["store.recovery_ms"] = metric{secs * 1000, "ms"}
			metrics["store.recovery_replayed_records"] = metric{float64(replayed), "count"}
		}
	}

	var attempted, failed int64
	for _, c := range r.clients {
		attempted += c.attemptedTotal
		failed += c.failedTotal
	}
	attempted += r.checks
	failed += r.failed
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	rec.Failures = r.failures
	return rec, nil
}

// setup boots the stack, uploads and registers every input and warms the
// caches the window relies on.
func (r *runner) setup(rep int) error {
	dir := filepath.Join(r.scratch, fmt.Sprintf("setup%d", rep))
	var err error
	switch {
	case r.p.w.cluster:
		r.st, err = bootCluster(dir, r.tr)
	case r.p.w.durable:
		r.st, err = bootSingle(filepath.Join(dir, "n1"), r.tr)
	default:
		r.st, err = bootSingle("", r.tr)
	}
	if err != nil {
		return err
	}
	ctx := context.Background()
	r.ids = make([]string, len(r.p.inputs))
	r.pids = make([]string, len(r.p.inputs))
	r.place = nil
	for i, in := range r.p.inputs {
		var meta struct {
			ID       string   `json:"id"`
			Owner    string   `json:"owner"`
			Replicas []string `json:"replicas"`
		}
		if _, err := call(ctx, r.ctl, http.MethodPost, r.st.base+"/v1/graphs", in.body, nil, &meta); err != nil {
			return fmt.Errorf("registering %s: %w", in.label, err)
		}
		r.ids[i] = meta.ID
		if r.st.client != nil {
			r.place = append(r.place, placement{Graph: in.label, ID: meta.ID, Owner: meta.Owner, Replicas: meta.Replicas})
		}
		if in.partitioned {
			pl, err := r.registerPartitioned(in)
			if err != nil {
				return err
			}
			r.pids[i] = pl.ID
			r.place = append(r.place, pl)
		}
	}
	r.warm()
	return nil
}

// registerPartitioned registers in partitioned with p=4
// placementCandidates times, keeps the registration whose scatter work is
// the median and deletes the others.
func (r *runner) registerPartitioned(in *input) (placement, error) {
	ctx := context.Background()
	var cands []placement
	for range placementCandidates {
		var meta struct {
			ID string `json:"id"`
		}
		if _, err := call(ctx, r.ctl, http.MethodPost, r.st.base+"/v1/graphs?partitioned=1&p="+strconv.Itoa(streamP),
			in.body, nil, &meta); err != nil {
			return placement{}, fmt.Errorf("registering partitioned %s: %w", in.label, err)
		}
		pl := placement{Graph: in.label + "/partitioned", ID: meta.ID, ShardEdges: map[string]int{}}
		var lines float64
		for _, n := range r.st.nodes {
			shard := n.url + "/v1/graphs/" + meta.ID + ".s." + n.name
			var info struct {
				M int `json:"m"`
			}
			if _, err := call(ctx, r.ctl, http.MethodGet, shard, nil, forwardHeader(), &info); err != nil {
				return placement{}, fmt.Errorf("shard of %s on %s: %w", in.label, n.name, err)
			}
			pl.ShardEdges[n.name] = info.M
			var est struct {
				Estimate float64 `json:"estimate"`
			}
			if _, err := call(ctx, r.ctl, http.MethodPost, shard+"/query?mode=estimate&method=exact",
				[]byte(`{"p":4}`), forwardHeader(), &est); err != nil {
				return placement{}, fmt.Errorf("counting shard of %s on %s: %w", in.label, n.name, err)
			}
			lines += est.Estimate
		}
		pl.ScatterWork = lines / float64(in.counts[streamP])
		cands = append(cands, pl)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ScatterWork < cands[j].ScatterWork })
	keep := cands[len(cands)/2]
	for _, c := range cands {
		keep.Candidates = append(keep.Candidates, c.ScatterWork)
		if c.ID == keep.ID {
			continue
		}
		if _, err := call(ctx, r.ctl, http.MethodDelete, r.st.base+"/v1/graphs/"+c.ID, nil, nil, nil); err != nil {
			return placement{}, fmt.Errorf("deleting partitioned candidate %s: %w", c.ID, err)
		}
	}
	return keep, nil
}

// warm sends, untimed, one request of every kind each input receives in
// the window (patches excepted: they would change the write graphs), so
// sessions, memoized listings and sketches exist before timing starts.
func (r *runner) warm() {
	c := newClient(r, -1, nil)
	c.hc = r.ctl
	seen := make(map[[2]int]bool)
	for _, seq := range r.p.clients {
		for _, o := range seq {
			if o.kind == opPatch || seen[[2]int{o.graph, int(o.kind)}] {
				continue
			}
			seen[[2]int{o.graph, int(o.kind)}] = true
			err := c.do(o)
			if o.kind == opRYW && err == nil {
				err = r.checkRYW(o.graph, c.ryw[len(c.ryw)-1])
				c.ryw = c.ryw[:0]
			}
			if err != nil {
				err = fmt.Errorf("warm-up %s on %s: %w", kindNames[o.kind], r.p.inputs[o.graph].label, err)
			}
			r.check(err)
		}
	}
}

// checkRYW compares a read-your-writes answer taken before any patch.
func (r *runner) checkRYW(graph int, s rywSample) error {
	if want := r.p.inputs[graph].counts[streamP] + r.skew; s.acked != 0 || s.count != want {
		return fmt.Errorf("read-your-writes at batch %d: %d cliques, want %d", s.acked, s.count, want)
	}
	return nil
}

// runWindow runs both clients closed-loop for d. The window ends when the
// last in-flight request completes.
func (r *runner) runWindow(d time.Duration) windowStats {
	for _, c := range r.clients {
		c.resetWindow()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(func() bool { return time.Now().Before(deadline) })
		}(c)
	}
	wg.Wait()
	ws := windowStats{elapsed: time.Since(start)}
	for _, c := range r.clients {
		ws.samples = append(ws.samples, c.samples...)
		c.attemptedTotal += int64(len(c.samples))
		c.failedTotal += c.failed
		ws.invalidated += c.invalidated
		ws.patches += c.patches
	}
	return ws
}

// windowStats is one timed window's outcome across both clients.
type windowStats struct {
	elapsed     time.Duration
	samples     []sample
	invalidated int64
	patches     int64
}

func (ws windowStats) opsPerSec() float64 { return float64(len(ws.samples)) / ws.elapsed.Seconds() }

// latencies returns the sorted latencies of the successful requests of
// one kind, or of every kind when kind is numKinds.
func (ws windowStats) latencies(kind opKind) []float64 {
	var out []float64
	for _, s := range ws.samples {
		if s.ok && (kind == numKinds || s.kind == kind) {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd gives the window's throughput and latency metrics. The tail is
// p90: the cluster's p95 falls on its scatters, whose run-to-run spread
// on a shared 2-core host exceeds any bound BENCHMARK.json may set.
func (ws windowStats) endToEnd() map[string]metric {
	all := ws.latencies(numKinds)
	return map[string]metric{
		"ops_per_s": {ws.opsPerSec(), "1/s"},
		"p50_ms":    {quantile(all, 0.50), "ms"},
		"p90_ms":    {quantile(all, 0.90), "ms"},
	}
}

// sampleCounts gives each kind's successful requests, and all of them.
func (ws windowStats) sampleCounts() map[string]int {
	out := map[string]int{"all": len(ws.latencies(numKinds))}
	for k := range numKinds {
		if n := len(ws.latencies(k)); n > 0 {
			out[kindNames[k]] = n
		}
	}
	return out
}

// kindSummary gives each kind's p50, p90 and p99 in ms, for attributing
// the pooled percentiles.
func (ws windowStats) kindSummary() map[string][3]float64 {
	out := map[string][3]float64{}
	for k := range numKinds {
		if lat := ws.latencies(k); len(lat) > 0 {
			out[kindNames[k]] = [3]float64{quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)}
		}
	}
	return out
}

// verifyWrites replays every write graph's acknowledged batches through a
// graph.DynGraph and checks each read-your-writes answer against the
// replay at its prefix, then the final state of every node holding the
// graph (owner and replica) against the replay's final graph.
func (r *runner) verifyWrites() {
	for ci, gi := range r.p.writer {
		if gi < 0 {
			continue
		}
		c := r.clients[ci]
		in := r.p.inputs[gi]
		d := graph.NewDynGraph(in.g, graph.DynConfig{}, streamP)
		samples := c.ryw
		next := 0
		checkAt := func(k int) {
			for ; next < len(samples) && samples[next].acked == k; next++ {
				n, _ := d.Count(streamP)
				if got := samples[next].count; got != n+r.skew {
					r.failOp(fmt.Errorf("%s read-your-writes after %d batches: %d cliques, replay has %d", in.label, k, got, n))
				}
			}
		}
		checkAt(0)
		for k := 0; k < c.acked; k++ {
			if _, err := d.ApplyBatch(in.batch(k)); err != nil {
				r.check(fmt.Errorf("%s replay batch %d: %w", in.label, k, err))
				return
			}
			checkAt(k + 1)
		}
		want := exportEdges(d.Snapshot())
		for _, n := range r.hostsOf(gi) {
			var exp struct {
				N     int        `json:"n"`
				Seq   uint64     `json:"seq"`
				Edges [][2]int32 `json:"edges"`
			}
			_, err := call(context.Background(), r.ctl, http.MethodGet, n.url+"/v1/graphs/"+r.ids[gi]+"/export",
				nil, forwardHeader(), &exp)
			if err == nil && (exp.N != in.g.N() || exp.Seq != uint64(c.acked) || !slices.Equal(exp.Edges, want)) {
				err = fmt.Errorf("n=%d seq=%d m=%d, replay has n=%d seq=%d m=%d",
					exp.N, exp.Seq, len(exp.Edges), in.g.N(), c.acked, len(want))
			}
			if err != nil {
				err = fmt.Errorf("%s final state on %s: %w", in.label, n.name, err)
			}
			r.check(err)
		}
	}
}

// hostsOf lists the nodes holding input gi: its owner and replicas in a
// cluster, the single node otherwise.
func (r *runner) hostsOf(gi int) []*node {
	if r.st.client == nil {
		return r.st.nodes
	}
	var out []*node
	for _, m := range r.st.client.Ring().ReplicaSet(r.ids[gi], 2) {
		out = append(out, r.st.nodeNamed(m.Name))
	}
	return out
}

// exportEdges lists g's edges in the order /export writes them.
func exportEdges(g *kplist.Graph) [][2]int32 {
	out := make([][2]int32, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(kplist.V(u)) {
			if int(v) > u {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// verifyRecovery closes the durable node and reopens its data dir
// recoveryCycles times, each time until every write graph reads back
// equal to its replay. It returns the WAL records a reopen replays and
// the median seconds from server.Open to the last verified read.
func (r *runner) verifyRecovery() (int64, float64) {
	n := r.st.nodes[0]
	r.ctl.CloseIdleConnections()
	if err := n.stop(); err != nil {
		r.check(fmt.Errorf("stopping node for recovery: %w", err))
		return 0, 0
	}
	r.st.nodes = nil
	want := make(map[int][][2]int32)
	for ci, gi := range r.p.writer {
		if gi < 0 {
			continue
		}
		d := graph.NewDynGraph(r.p.inputs[gi].g, graph.DynConfig{})
		for k := 0; k < r.clients[ci].acked; k++ {
			if _, err := d.ApplyBatch(r.p.inputs[gi].batch(k)); err != nil {
				r.check(err)
				return 0, 0
			}
		}
		want[ci] = exportEdges(d.Snapshot())
	}
	var secs []float64
	var replayed int64
	for range recoveryCycles {
		t0 := time.Now()
		srv, err := server.Open(n.cfg)
		if err != nil {
			r.check(fmt.Errorf("recovery: %w", err))
			return 0, 0
		}
		for ci, gi := range r.p.writer {
			if gi < 0 {
				continue
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/"+r.ids[gi]+"/export", nil))
			var exp struct {
				Seq   uint64     `json:"seq"`
				Edges [][2]int32 `json:"edges"`
			}
			err := json.Unmarshal(rec.Body.Bytes(), &exp)
			if err == nil && (exp.Seq != uint64(r.clients[ci].acked) || !slices.Equal(exp.Edges, want[ci])) {
				err = fmt.Errorf("seq %d m=%d, replay has seq %d", exp.Seq, len(exp.Edges), r.clients[ci].acked)
			}
			if err != nil {
				err = fmt.Errorf("%s after recovery: %w", r.p.inputs[gi].label, err)
			}
			r.check(err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		replayed = srv.Recovery().WALRecordsReplayed
		if err := srv.Close(); err != nil {
			r.check(fmt.Errorf("closing recovered node: %w", err))
		}
	}
	return replayed, median(secs)
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later; elsewhere a no-op).
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
