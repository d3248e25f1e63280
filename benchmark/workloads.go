package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"kplist"
	"kplist/internal/sketch"
)

// opKind is one kind of client request.
type opKind int8

const (
	opStream    opKind = iota // GET /cliques?p=4&algo=truth, kernel visit order
	opLexStream               // the same with order=lex
	opScatter                 // the same on a partitioned graph, through the gateway
	opQuery                   // POST /query, an exact engine
	opEstimate                // POST /query?mode=estimate, the HLL sketch
	opPatch                   // PATCH /edges, one 16-mutation batch
	opRYW                     // POST /query after the client's own patches
	numKinds
)

var kindNames = [numKinds]string{"stream", "lex-stream", "scatter", "query", "estimate", "patch", "ryw-query"}

// op is one request in a client's sequence: its kind, the input graph it
// targets and, for queries, the index of the query key.
type op struct {
	kind  opKind
	graph int
	key   int
}

// Estimates ask for eps 0.05 at 95% confidence from the maintained HLL.
const (
	estimateEps  = 0.05
	estimateConf = 0.95
	streamP      = 4
)

// input is one uploaded graph with the answers its requests must get.
type input struct {
	label       string
	spec        kplist.WorkloadSpec
	g           *kplist.Graph
	body        []byte // the register request: {"name","n","edges"}
	partitioned bool   // also registered with ?partitioned=1&p=4 (cluster)
	write       bool   // patched by one client; registered uncached

	counts     map[int]int64 // p → exact clique count
	visit, lex digest        // expected NDJSON truth streams
	sketchSeed int64         // HLL seed whose interval contains counts[4]
	hllEst     float64       // expected HLL estimate at sketchSeed
	// A write graph's churn trace and, batch by batch, its inverse.
	trace, undo [][]kplist.Mutation
}

// batch is the k-th batch a client sends to its write graph. The trace
// runs forward, then is undone batch by batch back to the uploaded graph,
// then runs forward again, so a client never runs out of batches however
// fast the write path gets. A trace batch touches each edge once, so its
// inverse (every add a remove and every remove an add) is effective on
// the graph the batch produced.
func (in *input) batch(k int) []kplist.Mutation {
	n := len(in.trace)
	i := k % (2 * n)
	if i < n {
		return in.trace[i]
	}
	return in.undo[2*n-1-i]
}

// workload describes one traffic mix and the inputs it runs on.
type workload struct {
	name    string
	why     string
	cluster bool // three durable nodes behind a gateway
	durable bool // the single node keeps a data dir with fsync on
	// rungs are the ladder groups on the paths the mix sends requests down.
	rungs []rungGroup
	build func(p *plan, rng *rand.Rand)
}

// plan is a workload's generated inputs, op sequences and ladder input.
type plan struct {
	w       *workload
	tiny    bool
	seed    int64
	inputs  []*input
	keys    []kplist.Query
	clients [numClients][]op
	// writer[i] is the input client i patches, or -1.
	writer [numClients]int
	// The read rungs of the ladder replay one input's typical requests;
	// the write rungs replay the start of the first write graph's trace.
	ladderInput int
	ladderKeys  []kplist.Query
}

// numClients is the closed loop's client count: the host has two cores
// and kplistd callers each wait for their reply.
const numClients = 2

// seqLen is the length of each client's op cycle; a patch sends the next
// batch of the client's own graph (input.batch) wherever it falls.
const seqLen = 4096

// traceLen is the length of a write graph's trace before it is undone.
const traceLen = 2048

var workloads = []*workload{
	{
		name:  "node-read-hot",
		why:   "one in-memory node, 4 graphs under the pool of 8: pool, result cache and sketches always hit, so kernel and NDJSON encode dominate",
		rungs: []rungGroup{rungsStream, rungsQueryHit, rungsEstimate},
		build: func(p *plan, rng *rand.Rand) {
			p.addInput("sbm-1024", kplist.WorkloadStochasticBlock, 1024)
			p.addInput("kron-2048", kplist.WorkloadKronecker, 2048)
			p.addInput("ba-4096", kplist.WorkloadBarabasiAlbert, 4096)
			p.addInput("planted-2048", kplist.WorkloadPlantedClique, 2048)
			p.keys = []kplist.Query{{P: 4, Algo: kplist.AlgoCONGEST, Seed: 1}}
			p.mix(rng, []share{{opStream, 2}, {opQuery, 2}, {opEstimate, 1}})
			p.ladderInput, p.ladderKeys = 0, p.keys
		},
	},
	{
		name:  "node-read-cold",
		why:   "one in-memory node, 24 graphs, 3x the pool: evictions drop session caches, so session opens and the simulated engines dominate",
		rungs: []rungGroup{rungsQueryMiss, rungsQueryHit},
		build: func(p *plan, rng *rand.Rand) {
			fams := []string{kplist.WorkloadStochasticBlock, kplist.WorkloadPlantedClique,
				kplist.WorkloadBarabasiAlbert, kplist.WorkloadKronecker}
			for _, n := range []int{256, 320, 384, 448, 512, 576} {
				for _, f := range fams {
					p.addInput(fmt.Sprintf("%s-%d", f, n), f, n)
				}
			}
			p.keys = []kplist.Query{
				{P: 4, Algo: kplist.AlgoCONGEST, Seed: 1},
				{P: 4, Algo: kplist.AlgoFastK4, Seed: 1},
				{P: 3, Algo: kplist.AlgoCongestedClique, Seed: 1},
				{P: 5, Algo: kplist.AlgoCONGEST, Seed: 1},
			}
			p.mix(rng, []share{{opQuery, 1}})
			p.ladderInput, p.ladderKeys = 12, p.keys // stochastic-block n=448
		},
	},
	{
		name:    "node-write-durable",
		why:     "one durable node with fsync per batch, one graph per client: patches beside read-your-writes queries exercise apply, WAL, invalidation and compaction",
		durable: true,
		rungs:   []rungGroup{rungsWrite, rungsQueryMiss},
		build: func(p *plan, rng *rand.Rand) {
			for i := 0; i < numClients; i++ {
				p.addInput(fmt.Sprintf("planted-512-w%d", i), kplist.WorkloadPlantedClique, 512).write = true
				p.writer[i] = i
				// Four patches, then one read-your-writes query.
				for j := 0; j < seqLen; j++ {
					k := opPatch
					if j%5 == 4 {
						k = opRYW
					}
					p.clients[i] = append(p.clients[i], op{kind: k, graph: i})
				}
			}
			p.keys = []kplist.Query{{P: 4, Algo: kplist.AlgoCONGEST}}
			p.ladderInput, p.ladderKeys = 0, p.keys
		},
	},
	{
		name:    "cluster-mixed",
		why:     "3 durable nodes at R=2 behind the gateway: the only workload that runs routing, relay, scatter merge, sketch merge and replica fan-out",
		cluster: true,
		rungs:   []rungGroup{rungsCluster, rungsWrite},
		build: func(p *plan, rng *rand.Rand) {
			p.addInput("sbm-1024", kplist.WorkloadStochasticBlock, 1024).partitioned = true
			for i := 0; i < numClients; i++ {
				p.addInput(fmt.Sprintf("planted-512-w%d", i), kplist.WorkloadPlantedClique, 512).write = true
				p.writer[i] = i + 1
			}
			p.keys = []kplist.Query{{P: 4, Algo: kplist.AlgoCONGEST, Seed: 1}}
			p.mix(rng, []share{{opEstimate, 3}, {opPatch, 4}, {opLexStream, 12}, {opScatter, 1}})
			p.ladderInput, p.ladderKeys = 0, p.keys
		},
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// share is one op kind's weight in a mix.
type share struct {
	kind   opKind
	weight int
}

// mix fills every client's sequence with shuffled blocks. A block holds
// each kind weight times for every graph (and, for queries, every key) it
// targets: reads go to the read graphs, patches to the client's own
// write graph. Exact per-block counts keep the kind shares identical on
// every seed, so the pooled percentiles always fall at the same place in
// the same kind's distribution.
func (p *plan) mix(rng *rand.Rand, shares []share) {
	var reads []int
	for i, in := range p.inputs {
		if !in.write {
			reads = append(reads, i)
		}
	}
	for c := 0; c < numClients; c++ {
		var block []op
		for _, s := range shares {
			graphs, keys := reads, 1
			switch s.kind {
			case opPatch:
				graphs = []int{p.writer[c]}
			case opQuery:
				keys = len(p.keys)
			}
			for _, g := range graphs {
				for k := 0; k < keys; k++ {
					for w := 0; w < s.weight; w++ {
						block = append(block, op{kind: s.kind, graph: g, key: k})
					}
				}
			}
		}
		for len(p.clients[c]) < seqLen {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			p.clients[c] = append(p.clients[c], block...)
		}
	}
}

// mixSeed derives an independent stream seed from the run seed.
func mixSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, v := range parts {
		x ^= uint64(v) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	return int64(x>>1) | 1
}

// addInput generates one graph from the run seed; tiny runs divide n by 8.
func (p *plan) addInput(label, family string, n int) *input {
	if p.tiny {
		n = max(n/8, 48)
	}
	spec := kplist.WorkloadSpec{Family: family, N: n, Seed: mixSeed(p.seed, int64(len(p.inputs)))}
	in := &input{label: label, spec: spec, counts: make(map[int]int64)}
	p.inputs = append(p.inputs, in)
	return in
}

// buildPlan generates a workload's inputs, sequences and expected answers.
// Everything here happens before the set-up timer starts.
func buildPlan(w *workload, seed int64, tiny bool) (*plan, error) {
	p := &plan{w: w, tiny: tiny, seed: seed, writer: [numClients]int{-1, -1}}
	w.build(p, rand.New(rand.NewSource(mixSeed(seed, 1<<20))))
	uses := p.uses()
	for i, in := range p.inputs {
		inst, err := kplist.GenerateWorkload(in.spec)
		if err != nil {
			return nil, err
		}
		edges := inst.G.Edges()
		wire := make([][2]int32, len(edges))
		for j, e := range edges {
			wire[j] = [2]int32{e.U, e.V}
		}
		if in.g, err = kplist.NewGraph(inst.G.N(), edges); err != nil {
			return nil, err
		}
		if in.body, err = json.Marshal(map[string]any{"name": in.label, "n": inst.G.N(), "edges": wire}); err != nil {
			return nil, err
		}
		u := uses[i]
		ps := map[int]bool{}
		if u[opQuery] || u[opRYW] {
			for _, q := range p.keys {
				ps[q.P] = true
			}
		}
		if i == p.ladderInput {
			for _, q := range p.ladderKeys {
				ps[q.P] = true
			}
		}
		if u[opEstimate] {
			ps[streamP] = true
		}
		for q := range ps {
			in.counts[q] = in.g.CountCliques(q)
		}
		if u[opStream] {
			in.visit = visitDigest(in.g, streamP)
		}
		if u[opLexStream] || u[opScatter] {
			in.lex = lexDigest(in.g, streamP)
		}
		if u[opEstimate] {
			if err := in.pickSketchSeed(mixSeed(seed, int64(i), 7)); err != nil {
				return nil, err
			}
		}
		if in.write {
			tr, err := kplist.GenerateMutationTrace(in.g, kplist.MutationTraceSpec{
				Schedule: kplist.TraceChurn, Batches: traceLen, BatchSize: 16, Seed: mixSeed(seed, int64(i), 3)})
			if err != nil {
				return nil, err
			}
			in.trace = tr.Batches
			for _, b := range in.trace {
				inv := make([]kplist.Mutation, len(b))
				for j, m := range b {
					inv[j] = m
					inv[j].Op = kplist.MutAdd
					if m.Op == kplist.MutAdd {
						inv[j].Op = kplist.MutDel
					}
				}
				in.undo = append(in.undo, inv)
			}
		}
	}
	return p, nil
}

// uses reports, per input, which op kinds target it.
func (p *plan) uses() []map[opKind]bool {
	out := make([]map[opKind]bool, len(p.inputs))
	for i := range out {
		out[i] = make(map[opKind]bool)
	}
	for _, seq := range p.clients {
		for _, o := range seq {
			out[o.graph][o.kind] = true
		}
	}
	return out
}

// pickSketchSeed finds, from start on, the first HLL seed whose interval
// at the requested confidence contains the exact count. The benchmark
// must run only operations that succeed; a seed whose 95% interval misses
// (one in twenty) would fail every estimate on that graph.
func (in *input) pickSketchSeed(start int64) error {
	prec := sketch.PrecisionForEps(estimateEps, estimateConf)
	exact := float64(in.counts[streamP])
	for s := start; s < start+64; s++ {
		h, err := sketch.NewCliqueHLL(prec, s)
		if err != nil {
			return err
		}
		h.InscribeGraph(in.g, streamP)
		lo, hi := h.ConfidenceInterval(estimateConf)
		if lo <= exact && exact <= hi {
			in.sketchSeed, in.hllEst = s, h.Estimate()
			return nil
		}
	}
	return fmt.Errorf("%s: no sketch seed in 64 tries covers the exact count", in.label)
}

// digest identifies an NDJSON body: CRC-32C, length and line count.
type digest struct {
	CRC   uint32
	Bytes int64
	Lines int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digester computes a digest incrementally as an io.Writer.
type digester struct {
	h     hash.Hash32
	bytes int64
	lines int64
}

func newDigester() *digester { return &digester{h: crc32.New(castagnoli)} }

func (d *digester) reset() { d.h.Reset(); d.bytes, d.lines = 0, 0 }

func (d *digester) Write(b []byte) (int, error) {
	d.h.Write(b)
	d.bytes += int64(len(b))
	for _, c := range b {
		if c == '\n' {
			d.lines++
		}
	}
	return len(b), nil
}

func (d *digester) sum() digest { return digest{CRC: d.h.Sum32(), Bytes: d.bytes, Lines: d.lines} }

// appendCliqueLine renders one clique the way kplistd's truth stream does.
func appendCliqueLine(line []byte, c kplist.Clique) []byte {
	line = append(line, '[')
	for i, v := range c {
		if i > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendInt(line, int64(v), 10)
	}
	return append(line, ']', '\n')
}

// visitDigest is the expected p=4 truth stream in kernel visit order.
func visitDigest(g *kplist.Graph, p int) digest {
	d := newDigester()
	buf := make([]byte, 0, 64<<10)
	g.VisitCliques(p, func(c kplist.Clique) {
		buf = appendCliqueLine(buf, c)
		if len(buf) > 60<<10 {
			d.Write(buf)
			buf = buf[:0]
		}
	})
	d.Write(buf)
	return d.sum()
}

// lexDigest is the expected order=lex stream: the sorted listing.
func lexDigest(g *kplist.Graph, p int) digest {
	d := newDigester()
	buf := make([]byte, 0, 64<<10)
	for _, c := range g.ListCliques(p) {
		buf = appendCliqueLine(buf, c)
		if len(buf) > 60<<10 {
			d.Write(buf)
			buf = buf[:0]
		}
	}
	d.Write(buf)
	return d.sum()
}

// patchBody encodes one mutation batch in PATCH /edges wire form.
func patchBody(dst []byte, batch []kplist.Mutation) []byte {
	dst = append(dst[:0], `{"mutations":[`...)
	for i, m := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		opName := "add"
		if m.Op == kplist.MutDel {
			opName = "remove"
		}
		dst = append(dst, `{"op":"`...)
		dst = append(dst, opName...)
		dst = append(dst, `","u":`...)
		dst = strconv.AppendInt(dst, int64(m.Edge.U), 10)
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(m.Edge.V), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// batchEffect counts a batch's inserts and deletes; every trace mutation
// is effective, so the server must report exactly these.
func batchEffect(batch []kplist.Mutation) (adds, dels int) {
	for _, m := range batch {
		if m.Op == kplist.MutAdd {
			adds++
		} else {
			dels++
		}
	}
	return adds, dels
}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile of sorted xs; 0 when
// there are no samples (a run whose requests all failed), so a metric
// never reads NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}
