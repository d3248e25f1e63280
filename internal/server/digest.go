package server

// The self-healing replication surface (DESIGN.md §13): every graph
// carries an applied-mutation sequence number, /digest fingerprints the
// exact served state cheaply, /log hands a lagging replica the batches
// it missed straight from the WAL, and /export hands the whole graph plus
// its sequence position to the anti-entropy repairer in one document. The
// sequence counter advances once per *effective* mutation batch — the
// same discipline as the WAL, so on a durable node the counter and
// GraphStore.LastSeq agree and boot recovery restores it from the log.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync/atomic"

	"kplist"
)

// SeqHeader carries batch sequence numbers on the cluster replication
// path: the gateway tags each replica apply with the owner-assigned
// number on the request, and every mutation response reports the graph's
// applied sequence number back.
const SeqHeader = "X-Kplist-Seq"

// appliedSeq returns id's applied-batch counter, creating it at zero on
// first touch. Writes happen only under the graph's mutation lock; reads
// (digest, export) may race a batch and see the pre-batch value, which
// the anti-entropy protocol tolerates by re-checking on the next sweep.
func (s *Server) appliedSeq(id string) *atomic.Uint64 {
	if v, ok := s.seqs.Load(id); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := s.seqs.LoadOrStore(id, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// edgeSetHash fingerprints g's exact state: FNV-1a 64 over the vertex
// count and every edge (u,v) with u<v in ascending order. Adjacency rows
// are sorted and deduplicated by construction, so two graphs hash equal
// iff they have the same vertex count and edge set — regardless of the
// mutation history that produced them.
func edgeSetHash(g *kplist.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
	_, _ = h.Write(buf[:])
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(kplist.V(u)) {
			if int(v) <= u {
				continue
			}
			binary.LittleEndian.PutUint32(buf[:4], uint32(u))
			binary.LittleEndian.PutUint32(buf[4:], uint32(v))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// digestResponse is GET /v1/graphs/{id}/digest: the applied-batch
// sequence number plus the content hash of the edge set. Two nodes whose
// digests match serve byte-identical listings for the graph.
type digestResponse struct {
	Graph string `json:"graph"`
	Seq   uint64 `json:"seq"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Hash  string `json:"hash"`
}

// handleDigest answers with the graph's version digest. It takes the
// mutation lock so the (seq, hash) pair is a consistent cut — a digest
// torn across a concurrent batch would read as divergence and trigger a
// repair that wasn't needed.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	unlock := s.lockMutations(id)
	defer unlock()
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, digestResponse{
		Graph: id,
		Seq:   s.appliedSeq(id).Load(),
		N:     rg.G.N(),
		M:     rg.G.M(),
		Hash:  fmt.Sprintf("%016x", edgeSetHash(rg.G)),
	})
}

// exportResponse is GET /v1/graphs/{id}/export: the full-state transfer
// document. Its shape is a registerRequest (explicit ID, edge list) plus
// the applied sequence number, so the anti-entropy repairer can POST it
// verbatim to a replica and the replica adopts both the state and the
// owner's position in the batch stream.
type exportResponse struct {
	ID     string     `json:"id"`
	Name   string     `json:"name,omitempty"`
	Family string     `json:"family,omitempty"`
	N      int        `json:"n"`
	Seq    uint64     `json:"seq,omitempty"`
	Edges  [][2]int32 `json:"edges"`
}

// handleExport serializes the graph under its mutation lock, so the
// exported edge set and sequence number are the same consistent cut — no
// batch can land between them.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	unlock := s.lockMutations(id)
	defer unlock()
	rg, err := s.reg.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	g := rg.G
	edges := make([][2]int32, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(kplist.V(u)) {
			if int(v) > u {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	writeJSON(w, http.StatusOK, exportResponse{
		ID:     id,
		Name:   rg.Info.Name,
		Family: rg.Info.Family,
		N:      g.N(),
		Seq:    s.appliedSeq(id).Load(),
		Edges:  edges,
	})
}

// logResponse is GET /v1/graphs/{id}/log?after=N: the graph's applied
// sequence number and every logged batch past N, oldest first. Each batch
// is a PATCH body plus its seq, so it posts to a replica's /replica as
// it is, tagged with that seq.
type logResponse struct {
	Graph   string     `json:"graph"`
	Seq     uint64     `json:"seq"`
	Batches []logBatch `json:"batches"`
}

type logBatch struct {
	Seq       uint64         `json:"seq"`
	Mutations []mutationWire `json:"mutations"`
}

// handleLog serves the WAL tail a replica at seq N is missing. It reads
// under the mutation lock, so the batches and the seq are one consistent
// cut. It answers 410, with the node's seq in X-Kplist-Seq, when the log
// cannot cover N — an in-memory node, or a compaction folded batches past
// N into the snapshot — and the caller falls back to /export.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad after %q: want a seq ≥ 0", r.URL.Query().Get("after")))
		return
	}
	unlock := s.lockMutations(id)
	defer unlock()
	if _, err := s.reg.Get(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	seq := s.appliedSeq(id).Load()
	out := logResponse{Graph: id, Seq: seq, Batches: []logBatch{}}
	if after < seq {
		covered := false
		// The log's numbering is the fence's only while the two agree.
		if st := s.persist.store(id); st != nil && st.LastSeq() == seq {
			batches, ok, err := st.BatchesAfter(after)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			covered = ok
			for _, b := range batches {
				lb := logBatch{Seq: b.Seq, Mutations: make([]mutationWire, len(b.Mutations))}
				for i, m := range b.Mutations {
					op := "add"
					if m.Op == kplist.MutDel {
						op = "remove"
					}
					lb.Mutations[i] = mutationWire{Op: op, U: m.Edge.U, V: m.Edge.V}
				}
				out.Batches = append(out.Batches, lb)
			}
		}
		if !covered {
			w.Header().Set(SeqHeader, strconv.FormatUint(seq, 10))
			writeError(w, http.StatusGone, fmt.Errorf("graph %s: the log no longer covers seq %d (node at %d)", id, after, seq))
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}
