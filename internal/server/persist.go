package server

// The persistence layer behind -data-dir: each registered graph owns a
// kplist.GraphStore (snapshot + WAL) under <dataDir>/graphs/<id>/, and a
// manifest at <dataDir>/manifest.json records the registry's identity
// state (ID counter, names, families) that the graph files themselves do
// not carry. Boot recovery reads the manifest, recovers every listed
// store, restores the registry, and sweeps orphaned graph directories —
// the debris of a crash between store creation and the manifest write.
//
// Ordering: graph files are created before the manifest lists them and
// removed after the manifest forgets them, so the manifest only ever
// points at directories that exist. Capacity is rejected before any file
// is created, so ErrRegistryFull never leaves debris. One mutex
// serializes every create/remove end to end — the manifest is rewritten
// whole on each change, so interleaved writers could corrupt it or
// last-rename-wins could drop the other call's acknowledged graph (whose
// directory the next boot would then sweep as an orphan). The manifest
// is derived from this layer's own record of which stores exist, not
// from the registry, which may already list a graph whose store creation
// is still queued behind the lock.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kplist"
)

const manifestName = "manifest.json"

// manifest is the JSON document at <dataDir>/manifest.json.
type manifest struct {
	NextID int             `json:"nextId"`
	Graphs []manifestGraph `json:"graphs"`
}

// manifestGraph is the registry state one graph needs beyond its store:
// N and M are re-derived from the recovered graph. Planted is only the
// count — the clique lists themselves are generator provenance, not
// serving state, and are not persisted.
type manifestGraph struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Family  string `json:"family,omitempty"`
	Planted int    `json:"planted,omitempty"`
}

// RecoveryReport summarizes one boot recovery, for the startup log line,
// /healthz and the recovery gauges.
type RecoveryReport struct {
	Graphs             int           `json:"graphs"`
	WALRecordsReplayed int64         `json:"walRecordsReplayed"`
	WALTruncations     int           `json:"walTruncations"`
	OrphansSwept       int           `json:"orphansSwept"`
	Elapsed            time.Duration `json:"-"`
	ElapsedSeconds     float64       `json:"elapsedSeconds"`
}

// persistence owns the data directory: the per-graph stores and the
// manifest. The stores themselves are driven under the server's
// per-graph mutation locks; mu guards the maps and serializes the
// create/remove critical sections (store lookups on the mutation path
// briefly share it — a PATCH may wait out another graph's registration).
type persistence struct {
	dir string
	cfg kplist.StoreConfig

	mu     sync.Mutex
	stores map[string]*kplist.GraphStore
	// infos is what the manifest lists: exactly the graphs whose store
	// files exist on disk.
	infos map[string]manifestGraph
}

func (p *persistence) graphDir(id string) string {
	return filepath.Join(p.dir, "graphs", id)
}

// openPersistence recovers (or initializes) the data directory into reg
// and returns the persistence handle plus what recovery did.
func openPersistence(dir string, cfg kplist.StoreConfig, reg *Registry) (*persistence, RecoveryReport, error) {
	start := time.Now()
	p := &persistence{
		dir:    dir,
		cfg:    cfg,
		stores: make(map[string]*kplist.GraphStore),
		infos:  make(map[string]manifestGraph),
	}
	var rep RecoveryReport
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		return nil, rep, err
	}
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, rep, err
	}
	reg.SetNextID(man.NextID)
	for _, mg := range man.Graphs {
		st, g, stats, err := kplist.OpenGraphStore(p.graphDir(mg.ID), cfg)
		if err != nil {
			p.closeAll()
			return nil, rep, fmt.Errorf("server: recovering graph %s: %w", mg.ID, err)
		}
		info := GraphInfo{ID: mg.ID, Name: mg.Name, Family: mg.Family, Planted: mg.Planted}
		if err := reg.Restore(info, g); err != nil {
			st.Close()
			p.closeAll()
			return nil, rep, err
		}
		p.stores[mg.ID] = st
		p.infos[mg.ID] = mg
		rep.Graphs++
		rep.WALRecordsReplayed += stats.WALRecords
		if stats.WALTorn || stats.WALCorrupt {
			rep.WALTruncations++
		}
	}
	// Sweep directories the manifest does not list: a crash between store
	// creation and the manifest write, or between manifest removal and
	// directory removal.
	entries, err := os.ReadDir(filepath.Join(dir, "graphs"))
	if err != nil {
		p.closeAll()
		return nil, rep, err
	}
	for _, ent := range entries {
		if _, listed := p.infos[ent.Name()]; !listed {
			if err := os.RemoveAll(filepath.Join(dir, "graphs", ent.Name())); err != nil {
				p.closeAll()
				return nil, rep, err
			}
			rep.OrphansSwept++
		}
	}
	rep.Elapsed = time.Since(start)
	rep.ElapsedSeconds = rep.Elapsed.Seconds()
	return p, rep, nil
}

func readManifest(path string) (manifest, error) {
	var man manifest
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return man, nil // fresh data dir
	}
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("server: corrupt manifest %s: %w", path, err)
	}
	return man, nil
}

// writeManifestLocked writes p.infos as the manifest, atomically (unique
// temp file + fsync + rename). Callers hold p.mu, so manifest states
// land on disk in the same order the maps changed.
func (p *persistence) writeManifestLocked(nextID int) error {
	man := manifest{NextID: nextID}
	for _, mg := range p.infos {
		man.Graphs = append(man.Graphs, mg)
	}
	sort.Slice(man.Graphs, func(i, j int) bool {
		// IDs are "g<counter>": compare numerically via length-then-lex.
		if len(man.Graphs[i].ID) != len(man.Graphs[j].ID) {
			return len(man.Graphs[i].ID) < len(man.Graphs[j].ID)
		}
		return man.Graphs[i].ID < man.Graphs[j].ID
	})
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(p.dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, filepath.Join(p.dir, manifestName)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// store returns id's open store (nil when the node is in-memory, or the
// graph predates -data-dir or persistence is off for it).
func (p *persistence) store(id string) *kplist.GraphStore {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stores[id]
}

// walSeqs snapshots every open store's WAL sequence number — boot
// recovery restores each graph's applied-batch counter from it.
func (p *persistence) walSeqs() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.stores))
	for id, st := range p.stores {
		out[id] = st.LastSeq()
	}
	return out
}

// create initializes the graph's durable store holding g and records it
// in the manifest. Called after the registry admitted the graph
// (capacity is its concern); on failure the caller rolls the
// registration back. A non-zero seq seeds the store at that sequence
// number — the replica-repair install path, where the graph arrives
// already carrying the owner's applied-batch position.
func (p *persistence) create(info GraphInfo, g *kplist.Graph, seq uint64, reg *Registry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, err := kplist.CreateGraphStoreAt(p.graphDir(info.ID), g, seq, p.cfg)
	if err != nil {
		os.RemoveAll(p.graphDir(info.ID))
		return err
	}
	p.infos[info.ID] = manifestGraph{
		ID: info.ID, Name: info.Name, Family: info.Family, Planted: info.Planted,
	}
	if err := p.writeManifestLocked(reg.NextID()); err != nil {
		delete(p.infos, info.ID)
		st.Close()
		os.RemoveAll(p.graphDir(info.ID))
		return err
	}
	p.stores[info.ID] = st
	return nil
}

// remove closes id's store, forgets it in the manifest, then deletes its
// files — in that order, so the manifest never points at a missing
// directory and a crash mid-remove leaves only an orphan the next boot
// sweeps.
func (p *persistence) remove(id string, reg *Registry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stores[id]
	delete(p.stores, id)
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}
	if _, listed := p.infos[id]; listed {
		delete(p.infos, id)
		if err := p.writeManifestLocked(reg.NextID()); err != nil {
			return err
		}
	}
	return os.RemoveAll(p.graphDir(id))
}

// closeAll closes every open store (shutdown flush, or recovery-failure
// cleanup).
func (p *persistence) closeAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	for id, st := range p.stores {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
		delete(p.stores, id)
	}
	return err
}
