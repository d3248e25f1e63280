package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"kplist/internal/sketch"
)

// Partitioned estimate path (DESIGN.md §14): a partitioned graph's
// distinct p-clique set is exactly the union of its shard subgraphs'
// clique sets — every clique's root lies in some member's range, that
// member's shard carries all of the clique's edges, and every shard is a
// subgraph, so it holds no other cliques — so scattering one CliqueHLL
// fetch per shard and merging register-wise (max is idempotent, so the
// overlap between shards never double counts) reproduces the sketch a
// single node holding the whole graph would build, byte for byte. The
// gateway resolves (eps, conf) to an explicit precision before
// scattering so every shard inscribes into an identically-shaped sketch.

// ErrPartitionedEstimate reports an estimate method a partitioned graph
// cannot answer: exact counting and edge sampling need the whole graph on
// one node; only the merged-sketch (hll) path is served.
var ErrPartitionedEstimate = errors.New(
	"cluster: partitioned graphs answer estimates from merged sketches only (method=hll)")

// sketchParams resolves the sketch identity from URL parameters: an
// explicit precision wins; otherwise eps/conf pick one exactly as a
// single node would (PrecisionForEps defaults apply).
func sketchParams(q url.Values) (p, precision int, seed int64, err error) {
	p, err = strconv.Atoi(q.Get("p"))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad or missing p: %q", q.Get("p"))
	}
	if s := q.Get("seed"); s != "" {
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad seed: %q", s)
		}
	}
	var eps, conf float64
	if s := q.Get("eps"); s != "" {
		if eps, err = strconv.ParseFloat(s, 64); err != nil || eps < 0 {
			return 0, 0, 0, fmt.Errorf("bad eps: %q", s)
		}
	}
	if s := q.Get("conf"); s != "" {
		if conf, err = strconv.ParseFloat(s, 64); err != nil || conf < 0 || conf >= 1 {
			return 0, 0, 0, fmt.Errorf("bad conf: %q", s)
		}
	}
	precision = sketch.PrecisionForEps(eps, conf)
	if s := q.Get("precision"); s != "" {
		if precision, err = strconv.Atoi(s); err != nil {
			return 0, 0, 0, fmt.Errorf("bad precision: %q", s)
		}
	}
	return p, precision, seed, nil
}

// scatterSketch fetches every shard's CliqueHLL for (p, precision, seed)
// — with the usual read failover across each shard's hosts — and merges
// them register-wise.
func (c *Client) scatterSketch(ctx context.Context, pg *pgraph, p, precision int, seed int64) (*sketch.CliqueHLL, error) {
	if p != pg.p {
		return nil, fmt.Errorf("%w: registered p=%d, queried p=%d", ErrPartitionMismatch, pg.p, p)
	}
	var merged *sketch.CliqueHLL
	for i, m := range c.cfg.Members {
		shardID := pg.shardID(m.Name)
		q := fmt.Sprintf("/v1/graphs/%s/sketch?p=%d&precision=%d&seed=%d", shardID, p, precision, seed)
		resp, _, err := c.readFrom(ctx, c.shardHosts(i), m.Name, http.MethodGet, q, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s sketch: %w", shardID, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("cluster: shard %s sketch: status %d: %s",
				shardID, resp.StatusCode, bytes.TrimSpace(msg))
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s sketch: %w", shardID, err)
		}
		var h sketch.CliqueHLL
		if err := h.UnmarshalBinary(data); err != nil {
			return nil, fmt.Errorf("cluster: shard %s sketch: %w", shardID, err)
		}
		c.met.sketchShardFetches.Inc()
		if merged == nil {
			merged = &h
			continue
		}
		if err := merged.Merge(&h); err != nil {
			return nil, fmt.Errorf("cluster: shard %s sketch: %w", shardID, err)
		}
	}
	c.met.sketchMerges.Inc()
	return merged, nil
}

// handleSketch serves GET /v1/graphs/{id}/sketch through the gateway:
// partitioned graphs answer with the scatter-merged shard sketch,
// everything else relays to the owning node with read failover.
func (gw *Gateway) handleSketch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pg := gw.c.partitionedGraph(id)
	if pg == nil {
		resp, _, err := gw.c.doRead(r.Context(), id, http.MethodGet, "/v1/graphs/"+id+"/sketch?"+r.URL.RawQuery, nil)
		if err != nil {
			gwError(w, http.StatusBadGateway, err)
			return
		}
		relay(w, resp)
		return
	}
	p, precision, seed, err := sketchParams(r.URL.Query())
	if err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	h, err := gw.c.scatterSketch(r.Context(), pg, p, precision, seed)
	if err != nil {
		gwError(w, statusForSketchErr(err), err)
		return
	}
	data, err := h.MarshalBinary()
	if err != nil {
		gwError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Kplist-Sketch-P", strconv.Itoa(p))
	w.Header().Set("X-Kplist-Sketch-Precision", strconv.Itoa(h.Precision()))
	w.Header().Set("X-Kplist-Sketch-Seed", strconv.FormatInt(h.Seed(), 10))
	_, _ = w.Write(data)
}

// estimateWire mirrors kplistd's mode=estimate response shape so gateway
// clients see the same contract against partitioned graphs.
type estimateWire struct {
	Graph     string  `json:"graph"`
	P         int     `json:"p"`
	Estimate  float64 `json:"estimate"`
	CILo      float64 `json:"ci_lo"`
	CIHi      float64 `json:"ci_hi"`
	Method    string  `json:"method"`
	Exact     bool    `json:"exact"`
	Eps       float64 `json:"eps"`
	Conf      float64 `json:"conf"`
	Precision int     `json:"precision"`
}

// handlePartitionedEstimate answers POST /query?mode=estimate on a
// partitioned graph from the scatter-merged shard sketch. Exact and
// sampling methods are refused: both need the whole edge set on one node.
func (gw *Gateway) handlePartitionedEstimate(w http.ResponseWriter, r *http.Request, pg *pgraph) {
	switch method := r.URL.Query().Get("method"); method {
	case "", "auto", "hll":
	default:
		gwError(w, http.StatusBadRequest, fmt.Errorf("%w: got method=%q", ErrPartitionedEstimate, method))
		return
	}
	var body struct {
		P    int   `json:"p"`
		Seed int64 `json:"seed"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, gw.maxBody)).Decode(&body); err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("bad query body: %w", err))
		return
	}
	q := r.URL.Query()
	q.Set("p", strconv.Itoa(body.P))
	if q.Get("seed") == "" && body.Seed != 0 {
		q.Set("seed", strconv.FormatInt(body.Seed, 10))
	}
	p, precision, seed, err := sketchParams(q)
	if err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	h, err := gw.c.scatterSketch(r.Context(), pg, p, precision, seed)
	if err != nil {
		gwError(w, statusForSketchErr(err), err)
		return
	}
	conf := sketch.DefaultConf
	if s := q.Get("conf"); s != "" {
		conf, _ = strconv.ParseFloat(s, 64)
	}
	eps := sketch.DefaultEps
	if s := q.Get("eps"); s != "" {
		eps, _ = strconv.ParseFloat(s, 64)
	}
	lo, hi := h.ConfidenceInterval(conf)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(estimateWire{
		Graph:     pg.id,
		P:         p,
		Estimate:  h.Estimate(),
		CILo:      lo,
		CIHi:      hi,
		Method:    "hll",
		Exact:     false,
		Eps:       eps,
		Conf:      conf,
		Precision: h.Precision(),
	})
}

// statusForSketchErr maps scatter-sketch failures onto HTTP statuses:
// caller mistakes (wrong p, bad parameters) are 400, shard-side failures
// 502.
func statusForSketchErr(err error) int {
	if errors.Is(err, ErrPartitionMismatch) || errors.Is(err, ErrPartitionedEstimate) {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}
