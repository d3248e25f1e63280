package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kplist"
)

// client is one closed-loop caller: it sends its next request only after
// the previous reply has been read to the last byte.
type client struct {
	r   *runner
	id  int
	hc  *http.Client
	ops []op
	pos int
	buf []byte
	dg  *digester
	req []byte

	// Write state for the client's own graph: batches acknowledged so far,
	// their body bytes, and each read-your-writes answer with the prefix
	// it must reflect.
	acked    int
	ackBytes int64
	ryw      []rywSample

	// Per-window outcome.
	samples     []sample
	failed      int64
	invalidated int64
	// Totals across windows.
	attemptedTotal, failedTotal int64
	patches                     int64

	spanID uint64 // the current request's client span, 0 when untraced
}

// replicaAcksHeader is where the gateway reports a patch's replica acks.
const replicaAcksHeader = "X-Kplist-Replica-Acks"

type rywSample struct {
	acked int
	count int64
}

// sample is one request of a timed window.
type sample struct {
	ms    float64 // send to last byte read
	kind  opKind
	graph int // input index
	ok    bool
}

func newClient(r *runner, id int, ops []op) *client {
	return &client{r: r, id: id, hc: newClientHTTP(), ops: ops,
		buf: make([]byte, 64<<10), dg: newDigester()}
}

// resetWindow clears the per-window outcome; write state carries over.
func (c *client) resetWindow() {
	c.samples = c.samples[:0]
	c.failed, c.invalidated, c.patches = 0, 0, 0
}

// loop runs the client's sequence while more reports true.
func (c *client) loop(more func() bool) {
	for more() {
		o := c.ops[c.pos%len(c.ops)]
		c.pos++
		t0 := time.Now()
		err := c.do(o)
		c.samples = append(c.samples, sample{ms: msOf(time.Since(t0)), kind: o.kind, graph: o.graph, ok: err == nil})
		if err != nil {
			c.failed++
			c.r.fail(fmt.Errorf("client %d %s on %s: %w", c.id, kindNames[o.kind], c.r.p.inputs[o.graph].label, err))
		}
	}
}

// do sends one request, reads the reply to the last byte and checks it.
// With tracing on it also records the client span.
func (c *client) do(o op) error {
	tr := c.r.tr
	c.spanID = 0
	if tr != nil && tr.on.Load() {
		c.spanID = tr.next.Add(1)
		start := tr.now()
		defer func() {
			tr.add(span{ID: c.spanID, Kind: "client", Name: fmt.Sprintf("c%d", c.id),
				Route: kindNames[o.kind], Start: start, End: tr.now()})
		}()
	}
	in := c.r.p.inputs[o.graph]
	graphURL := c.r.st.base + "/v1/graphs/" + c.r.ids[o.graph]
	skew := c.r.skew
	switch o.kind {
	case opStream:
		return c.stream(graphURL+"/cliques?p=4&algo=truth", in.visit)
	case opLexStream:
		return c.stream(graphURL+"/cliques?p=4&algo=truth&order=lex", in.lex)
	case opScatter:
		return c.stream(c.r.st.base+"/v1/graphs/"+c.r.pids[o.graph]+"/cliques?p=4&algo=truth", in.lex)
	case opQuery, opRYW:
		q := c.r.p.keys[o.key]
		c.req = fmt.Appendf(c.req[:0], `{"p":%d,"algo":%q,"seed":%d}`, q.P, q.Algo, q.Seed)
		var resp struct {
			Results []struct {
				Cliques int64  `json:"cliques"`
				Error   string `json:"error"`
			} `json:"results"`
		}
		if _, err := c.send(http.MethodPost, graphURL+"/query", c.req, &resp); err != nil {
			return err
		}
		if len(resp.Results) != 1 || resp.Results[0].Error != "" {
			return fmt.Errorf("query %+v: bad results %+v", q, resp.Results)
		}
		got := resp.Results[0].Cliques
		if o.kind == opRYW {
			c.ryw = append(c.ryw, rywSample{acked: c.acked, count: got})
			return nil
		}
		if want := in.counts[q.P] + skew; got != want {
			return fmt.Errorf("query %+v: %d cliques, want %d", q, got, want)
		}
		return nil
	case opEstimate:
		target := graphURL
		if in.partitioned {
			target = c.r.st.base + "/v1/graphs/" + c.r.pids[o.graph]
		}
		c.req = fmt.Appendf(c.req[:0], `{"p":%d,"seed":%d}`, streamP, in.sketchSeed)
		var resp struct {
			Estimate float64 `json:"estimate"`
			CILo     float64 `json:"ci_lo"`
			CIHi     float64 `json:"ci_hi"`
			Method   string  `json:"method"`
		}
		url := target + "/query?mode=estimate&method=hll&eps=" + strconv.FormatFloat(estimateEps, 'g', -1, 64) +
			"&conf=" + strconv.FormatFloat(estimateConf, 'g', -1, 64)
		if _, err := c.send(http.MethodPost, url, c.req, &resp); err != nil {
			return err
		}
		exact := float64(in.counts[streamP] + skew)
		switch {
		case resp.Method != kplist.EstimateHLL:
			return fmt.Errorf("estimate answered by %q, want hll", resp.Method)
		case resp.Estimate != in.hllEst+float64(skew):
			return fmt.Errorf("estimate %v, want the single-node sketch's %v", resp.Estimate, in.hllEst)
		case resp.CILo > exact || exact > resp.CIHi:
			return fmt.Errorf("interval [%v, %v] misses the exact count %v", resp.CILo, resp.CIHi, exact)
		}
		return nil
	case opPatch:
		batch := in.batch(c.acked)
		c.req = patchBody(c.req, batch)
		var resp struct {
			AddedEdges         int    `json:"addedEdges"`
			RemovedEdges       int    `json:"removedEdges"`
			InvalidatedResults int    `json:"invalidatedResults"`
			Seq                uint64 `json:"seq"`
		}
		hdr, err := c.send(http.MethodPatch, graphURL+"/edges", c.req, &resp)
		if err != nil {
			return err
		}
		c.acked++
		c.ackBytes += int64(len(c.req))
		c.patches++
		c.invalidated += int64(resp.InvalidatedResults)
		adds, dels := batchEffect(batch)
		if resp.AddedEdges != adds || resp.RemovedEdges != dels || resp.Seq != uint64(c.acked)+uint64(skew) {
			return fmt.Errorf("batch %d: added %d removed %d seq %d, want %d %d %d",
				c.acked-1, resp.AddedEdges, resp.RemovedEdges, resp.Seq, adds, dels, c.acked)
		}
		if c.r.st.client != nil && hdr.Get(replicaAcksHeader) != "1" {
			return fmt.Errorf("batch %d: %q replica acks, want 1", c.acked-1, hdr.Get(replicaAcksHeader))
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// send issues a JSON request carrying the client span, if any, and
// decodes the 2xx answer into out.
func (c *client) send(method, url string, body []byte, out any) (http.Header, error) {
	var hdr http.Header
	if c.spanID != 0 {
		hdr = http.Header{spanHeader: []string{strconv.FormatUint(c.spanID, 10)}}
	}
	return call(context.Background(), c.hc, method, url, body, hdr, out)
}

// stream reads an NDJSON body to its last byte and compares its digest.
func (c *client) stream(url string, want digest) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if c.spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(c.spanID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	c.dg.reset()
	if _, err := io.CopyBuffer(c.dg, resp.Body, c.buf); err != nil {
		return err
	}
	got := c.dg.sum()
	if c.r.skew != 0 {
		want.CRC ^= uint32(c.r.skew)
	}
	if got != want {
		return fmt.Errorf("stream %+v, want %+v", got, want)
	}
	return nil
}
