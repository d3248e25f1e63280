package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kplist/internal/graph"
)

// Gateway is the scatter–gather HTTP front: it mirrors kplistd's /v1 API
// so existing clients can point at the gateway unchanged, routes every
// request to the owning node through the embedded Client (reads fail
// over to replicas, mutation batches fan out), serves partitioned graphs
// by scatter–gather, and exposes cluster-level /metrics and
// /healthz. kplistgw wraps exactly this handler in a daemon.
type Gateway struct {
	c       *Client
	mux     *http.ServeMux
	maxBody int64
}

// NewGateway builds the gateway handler over an existing Client.
func NewGateway(c *Client) *Gateway {
	gw := &Gateway{c: c, mux: http.NewServeMux(), maxBody: 256 << 20}
	gw.mux.HandleFunc("GET /healthz", gw.handleHealthz)
	gw.mux.Handle("GET /metrics", gw.c.met.reg)
	gw.mux.HandleFunc("POST /v1/graphs", gw.handleRegister)
	gw.mux.HandleFunc("GET /v1/graphs", gw.handleList)
	gw.mux.HandleFunc("GET /v1/graphs/{id}", gw.handleGet)
	gw.mux.HandleFunc("DELETE /v1/graphs/{id}", gw.handleDelete)
	gw.mux.HandleFunc("POST /v1/graphs/{id}/query", gw.handleQuery)
	gw.mux.HandleFunc("GET /v1/graphs/{id}/cliques", gw.handleCliques)
	gw.mux.HandleFunc("GET /v1/graphs/{id}/sketch", gw.handleSketch)
	gw.mux.HandleFunc("PATCH /v1/graphs/{id}/edges", gw.handlePatch)
	gw.mux.HandleFunc("GET /v1/graphs/{id}/digest", gw.handleDigest)
	return gw
}

// Client returns the embedded routing client.
func (gw *Gateway) Client() *Client { return gw.c }

func (gw *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gw.mux.ServeHTTP(w, r)
}

func gwError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// relay copies a node response through to the gateway client: status,
// content headers, the X-Kplist-* result headers, and the body, on the
// NDJSON stream policy — read into a graph.StreamBufferSize buffer that
// goes out to the client each time it fills, and once at the end.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	for name, vals := range resp.Header {
		if strings.HasPrefix(name, "X-Kplist-") {
			w.Header()[name] = vals
		}
	}
	w.WriteHeader(resp.StatusCode)
	bw := bufio.NewWriterSize(w, graph.StreamBufferSize)
	flusher, _ := w.(http.Flusher)
	for {
		// Read straight into the buffer's free space.
		n, err := resp.Body.Read(bw.AvailableBuffer()[:bw.Available()])
		bw.Write(bw.AvailableBuffer()[:n])
		if bw.Available() == 0 || err != nil {
			if bw.Flush() != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (gw *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, gw.maxBody))
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if r.URL.Query().Get("partitioned") == "1" {
		p, err := strconv.Atoi(r.URL.Query().Get("p"))
		if err != nil {
			gwError(w, http.StatusBadRequest,
				errors.New("partitioned registration needs an integer p query parameter"))
			return
		}
		meta, err := gw.c.RegisterPartitioned(r.Context(), body, p)
		if err != nil {
			gwError(w, statusForClusterErr(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(meta)
		return
	}

	// Plain registration: mint the cluster ID, inject it into the body,
	// register on owner + replicas, and relay the owner's answer enriched
	// with placement.
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
		return
	}
	id := NewGraphID()
	wire["id"] = id
	buf, err := json.Marshal(wire)
	if err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	resp, acks, err := gw.c.RegisterRaw(r.Context(), id, buf)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		relayBuffered(w, resp)
		return
	}
	var out map[string]any
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		gwError(w, http.StatusBadGateway, fmt.Errorf("decoding owner response: %w", err))
		return
	}
	set := gw.c.ring.ReplicaSet(id, gw.c.cfg.Replication)
	out["owner"] = set[0].Name
	replicas := make([]string, 0, len(set)-1)
	for _, m := range set[1:] {
		replicas = append(replicas, m.Name)
	}
	out["replicas"] = replicas
	out["replicaAcks"] = acks
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	json.NewEncoder(w).Encode(out)
}

// relayBuffered relays a response that is already partially consumed or
// small (error bodies).
func relayBuffered(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, 1<<20))
}

// handleList merges every member's graph listing: replicated graphs are
// deduplicated by ID, shard graphs are hidden, and partitioned graphs are
// reported from the gateway's own state.
func (gw *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	type nodeList struct {
		Graphs []map[string]any `json:"graphs"`
	}
	var mu sync.Mutex
	seen := make(map[string]map[string]any)
	var wg sync.WaitGroup
	for _, m := range gw.c.ring.Members() {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			resp, err := gw.c.forward(r.Context(), m, http.MethodGet, "/v1/graphs", nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				return
			}
			var nl nodeList
			if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&nl); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for _, g := range nl.Graphs {
				id, _ := g["id"].(string)
				if id == "" || strings.Contains(id, ShardIDSuffix) {
					continue
				}
				if _, dup := seen[id]; !dup {
					seen[id] = g
				}
			}
		}(m)
	}
	wg.Wait()

	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	graphs := make([]any, 0, len(seen)+4)
	for _, id := range ids {
		graphs = append(graphs, seen[id])
	}
	for _, id := range gw.c.PartitionedIDs() {
		if meta, ok := gw.c.PartitionedMeta(id); ok {
			graphs = append(graphs, meta)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"graphs": graphs})
}

func (gw *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if meta, ok := gw.c.PartitionedMeta(id); ok {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(meta)
		return
	}
	resp, _, err := gw.c.doRead(r.Context(), id, http.MethodGet, "/v1/graphs/"+id, nil)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, resp)
}

// handleDigest relays a graph's version digest (owner-preferred, with
// the usual read failover). Operators diff it across members to check
// replica convergence by hand; the sweeper does the same comparison
// internally.
func (gw *Gateway) handleDigest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, _, err := gw.c.doRead(r.Context(), id, http.MethodGet, "/v1/graphs/"+id+"/digest", nil)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, resp)
}

func (gw *Gateway) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if pg := gw.c.partitionedGraph(id); pg != nil {
		if err := gw.c.deletePartitioned(r.Context(), pg); err != nil {
			gwError(w, http.StatusBadGateway, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	deleted, err := gw.c.DeleteRaw(r.Context(), id)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if deleted == 0 {
		gwError(w, http.StatusNotFound, fmt.Errorf("graph %s not found on any member", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (gw *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if pg := gw.c.partitionedGraph(id); pg != nil {
		// Partitioned graphs cannot run the query kernel, but the
		// approximate tier works: estimates are answered from the
		// scatter-merged shard sketch (sketch.go).
		if r.URL.Query().Get("mode") == "estimate" {
			gw.handlePartitionedEstimate(w, r, pg)
			return
		}
		gwError(w, http.StatusBadRequest, ErrPartitionedMutation)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, gw.maxBody))
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	resp, _, err := gw.c.doRead(r.Context(), id, http.MethodPost, "/v1/graphs/"+id+"/query", body)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, resp)
}

func (gw *Gateway) handleCliques(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if pg := gw.c.partitionedGraph(id); pg != nil {
		p, err := strconv.Atoi(r.URL.Query().Get("p"))
		if err != nil {
			gwError(w, http.StatusBadRequest, errors.New("cliques needs an integer p query parameter"))
			return
		}
		if r.URL.Query().Get("stream") == "0" {
			gwError(w, http.StatusBadRequest, ErrPartitionedDocument)
			return
		}
		algo := r.URL.Query().Get("algo")
		w.Header().Set("Content-Type", "application/x-ndjson")
		lines, err := gw.c.scatterCliques(r.Context(), pg, p, algo, w)
		switch {
		case err == nil:
		case errors.Is(err, ErrPartitionMismatch):
			gwError(w, http.StatusBadRequest, err)
		case lines == 0:
			gwError(w, http.StatusBadGateway, err)
		default:
			// A 200 and a prefix of the listing are out: abort the
			// response so the client reads a truncated stream, not a
			// short listing that looks complete.
			panic(http.ErrAbortHandler)
		}
		return
	}
	resp, _, err := gw.c.doRead(r.Context(), id, http.MethodGet, "/v1/graphs/"+id+"/cliques?"+r.URL.RawQuery, nil)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, resp)
}

func (gw *Gateway) handlePatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if gw.c.partitionedGraph(id) != nil {
		gwError(w, http.StatusBadRequest, ErrPartitionedMutation)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, gw.maxBody))
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	resp, acks, err := gw.c.PatchRaw(r.Context(), id, body)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	w.Header().Set("X-Kplist-Replica-Acks", strconv.Itoa(acks))
	relay(w, resp)
}

// handleHealthz aggregates cluster health: per-member probe verdicts plus
// a live /healthz pass across the membership. 200 when every member is
// up, 503 when any is down (the body says which).
func (gw *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type memberHealthz struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
		Up   bool   `json:"up"`
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	members := gw.c.ring.Members()
	out := make([]memberHealthz, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			up := false
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Addr+"/healthz", nil)
			if err == nil {
				if resp, err := gw.c.hc.Do(req); err == nil {
					up = resp.StatusCode == http.StatusOK
					drain(resp)
				}
			}
			if up {
				gw.c.noteUp(m.Name)
			} else {
				gw.c.healthOf(m.Name).markDown()
			}
			out[i] = memberHealthz{Name: m.Name, Addr: m.Addr, Up: up}
		}(i, m)
	}
	wg.Wait()
	upCount := 0
	for _, m := range out {
		if m.Up {
			upCount++
		}
	}
	status := "ok"
	code := http.StatusOK
	if upCount < len(out) {
		status = "degraded"
		code = http.StatusServiceUnavailable
		if upCount == 0 {
			status = "down"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":      status,
		"members":     out,
		"membersUp":   upCount,
		"replication": gw.c.cfg.Replication,
		"partitioned": len(gw.c.PartitionedIDs()),
	})
}

// statusForClusterErr maps cluster errors to gateway HTTP statuses.
func statusForClusterErr(err error) int {
	switch {
	case errors.Is(err, ErrNoQuorum):
		return http.StatusBadGateway
	case errors.Is(err, ErrPartitionMismatch), errors.Is(err, ErrPartitionedMutation):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}
