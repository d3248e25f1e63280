// Package server is the kplistd serving layer: a multi-tenant graph
// registry (upload edge lists or generate from workload specs), an LRU
// pool of open kplist.Sessions with capacity-bounded eviction, HTTP JSON
// handlers with NDJSON clique streaming, and admission control (bounded
// accept queue, per-request deadlines, load-shedding 429s) with
// Prometheus-style observability. See DESIGN.md §7.
package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"kplist"
)

// Registry errors; handlers map them to 404/409 responses.
var (
	// ErrGraphNotFound reports a lookup of an unregistered (or removed)
	// graph ID.
	ErrGraphNotFound = errors.New("server: graph not found")
	// ErrRegistryFull reports a Register against a registry at MaxGraphs.
	ErrRegistryFull = errors.New("server: graph registry full")
	// ErrDuplicateGraphID reports a RegisterWithID under an ID that is
	// already registered (or squats on the auto "g<n>" namespace).
	ErrDuplicateGraphID = errors.New("server: graph ID unavailable")
)

// GraphInfo is the wire-visible description of a registered graph.
type GraphInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Family string `json:"family,omitempty"`
	// Planted is the number of structurally guaranteed cliques the
	// generating workload spec planted (0 for uploads).
	Planted int `json:"planted,omitempty"`
}

// RegisteredGraph is one tenant graph: immutable once registered, so
// handlers may hold it without locks.
type RegisteredGraph struct {
	Info    GraphInfo
	G       *kplist.Graph
	Planted []kplist.Clique
}

// Registry is the multi-tenant graph store. It owns only the immutable
// graphs; open sessions live in the SessionPool, keyed by graph ID, so
// removing a graph invalidates its pooled session but never an in-flight
// query (the pool refcounts).
type Registry struct {
	mu     sync.Mutex
	max    int
	nextID int
	graphs map[string]*RegisteredGraph
}

// NewRegistry returns a registry admitting at most maxGraphs graphs
// (≤ 0 means 64).
func NewRegistry(maxGraphs int) *Registry {
	if maxGraphs <= 0 {
		maxGraphs = 64
	}
	return &Registry{max: maxGraphs, graphs: make(map[string]*RegisteredGraph)}
}

// Register stores g under a fresh deterministic ID ("g1", "g2", …) and
// returns its info. It fails with ErrRegistryFull at capacity — the
// registry never silently evicts: graphs are tenant state, so freeing
// space is an explicit Remove.
func (r *Registry) Register(name, family string, g *kplist.Graph, planted []kplist.Clique) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.graphs) >= r.max {
		return GraphInfo{}, fmt.Errorf("%w (%d graphs; remove one first)", ErrRegistryFull, r.max)
	}
	r.nextID++
	info := GraphInfo{
		ID:      fmt.Sprintf("g%d", r.nextID),
		Name:    name,
		N:       g.N(),
		M:       g.M(),
		Family:  family,
		Planted: len(planted),
	}
	r.graphs[info.ID] = &RegisteredGraph{Info: info, G: g, Planted: planted}
	return info, nil
}

// autoID matches the registry's own "g<n>" namespace; explicit IDs may
// not squat on it, so auto-assignment never collides with RegisterWithID.
var autoID = regexp.MustCompile(`^g[0-9]+$`)

// graphID is the charset and length a caller-chosen ID must have: a
// durable node names the graph's directory after it, so it has to be one
// plain path segment (no separator, no leading dot). 128 characters
// admit every shard ID ("c<16 hex>" + ".s." + a member name of up to 64).
var graphID = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// errInvalidGraphID reports a caller-chosen ID outside graphID.
var errInvalidGraphID = errors.New("server: invalid graph ID")

// RegisterWithID stores g under a caller-chosen ID — the cluster path,
// where the gateway mints one ID and every replica registers the same
// graph under it. It fails on an ID outside graphID's charset, a
// duplicate ID, an ID inside the auto namespace ("g<n>"), or at capacity.
func (r *Registry) RegisterWithID(id, name, family string, g *kplist.Graph, planted []kplist.Clique) (GraphInfo, error) {
	if !graphID.MatchString(id) {
		return GraphInfo{}, fmt.Errorf("%w: %q must match %s", errInvalidGraphID, id, graphID)
	}
	if autoID.MatchString(id) {
		return GraphInfo{}, fmt.Errorf("%w: %q is inside the reserved g<n> namespace", ErrDuplicateGraphID, id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.graphs) >= r.max {
		return GraphInfo{}, fmt.Errorf("%w (%d graphs; remove one first)", ErrRegistryFull, r.max)
	}
	if _, dup := r.graphs[id]; dup {
		return GraphInfo{}, fmt.Errorf("%w: %q already registered", ErrDuplicateGraphID, id)
	}
	info := GraphInfo{
		ID:      id,
		Name:    name,
		N:       g.N(),
		M:       g.M(),
		Family:  family,
		Planted: len(planted),
	}
	r.graphs[id] = &RegisteredGraph{Info: info, G: g, Planted: planted}
	return info, nil
}

// Get returns the registered graph for id.
func (r *Registry) Get(id string) (*RegisteredGraph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, id)
	}
	return rg, nil
}

// UpdateGraph swaps id's graph for a mutated successor, refreshing the
// wire-visible edge count. The planted-clique annotation is dropped — a
// mutation may destroy the structural guarantee the generator made.
// Future session opens (after pool eviction) see the successor, so
// mutations survive the session working set.
func (r *Registry) UpdateGraph(id string, g *kplist.Graph) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrGraphNotFound, id)
	}
	info := rg.Info
	info.N = g.N()
	info.M = g.M()
	info.Planted = 0
	r.graphs[id] = &RegisteredGraph{Info: info, G: g}
	return info, nil
}

// Restore reinserts a recovered graph under its original ID — the boot
// recovery path. Unlike Register it never allocates an ID; it fails on a
// duplicate ID or at capacity.
func (r *Registry) Restore(info GraphInfo, g *kplist.Graph) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.graphs) >= r.max {
		return fmt.Errorf("%w (%d graphs)", ErrRegistryFull, r.max)
	}
	if _, dup := r.graphs[info.ID]; dup {
		return fmt.Errorf("server: duplicate graph ID %q in recovery", info.ID)
	}
	info.N = g.N()
	info.M = g.M()
	r.graphs[info.ID] = &RegisteredGraph{Info: info, G: g}
	return nil
}

// NextID returns the ID counter (persisted in the manifest so recovered
// registries never recycle IDs).
func (r *Registry) NextID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// SetNextID raises the ID counter to at least n — recovery restores the
// persisted counter through this, so IDs stay unique across restarts.
func (r *Registry) SetNextID(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.nextID {
		r.nextID = n
	}
}

// Remove unregisters id. The caller is responsible for invalidating any
// pooled session for it.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[id]; !ok {
		return fmt.Errorf("%w: %q", ErrGraphNotFound, id)
	}
	delete(r.graphs, id)
	return nil
}

// List returns every registered graph's info, sorted by ID.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, rg := range r.graphs {
		out = append(out, rg.Info)
	}
	sort.Slice(out, func(i, j int) bool {
		// IDs are "g<counter>": compare numerically via length-then-lex.
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.graphs)
}
