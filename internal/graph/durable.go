package graph

// GraphStore orchestrates one graph's durable state: an immutable
// snapshot file (snap-<epoch>.kpsnap) plus a WAL of committed mutation
// batches with sequence numbers above the snapshot epoch. Recovery opens
// the newest valid snapshot and replays the WAL tail through a DynGraph,
// so a restarted process serves exactly the batches it acknowledged —
// never a torn one. Compaction folds the log into a fresh snapshot and
// resets it; the rename is the commit point, so a crash at any step
// leaves either the old snapshot+log or the new snapshot.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"kplist/internal/store"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".kpsnap"
	walName    = "wal.log"
)

// StoreConfig tunes one graph's durable store.
type StoreConfig struct {
	// CompactRecords and CompactBytes trigger compaction when the WAL
	// exceeds either bound (0 means the built-in default; negative
	// disables that bound).
	CompactRecords int64
	CompactBytes   int64
	// NoSync disables per-append fsync — tests and throughput
	// benchmarks only; a crash may then lose acknowledged batches.
	NoSync bool
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.CompactRecords == 0 {
		c.CompactRecords = 4096
	}
	if c.CompactBytes == 0 {
		c.CompactBytes = 16 << 20
	}
	return c
}

// RecoveryStats describes one store open: what was on disk and what
// replay did with it.
type RecoveryStats struct {
	SnapshotLoaded bool
	SnapshotEpoch  uint64
	WALRecords     int64 // records replayed from the tail
	WALTorn        bool  // a crashed append was truncated
	WALCorrupt     bool  // mid-log corruption was truncated
	Elapsed        time.Duration
}

// GraphStore is one graph's open durable backing. Appends serialize on
// the caller (the server's per-graph mutation lock); GraphStore adds no
// locking of its own. The graph OpenGraphStore returns is heap-owned —
// no mapping outlives the open — so Close is safe at any time, even
// while recovered graphs still serve in-flight reads.
type GraphStore struct {
	dir string
	cfg StoreConfig
	wal *store.WAL
}

// CreateGraphStore initializes dir (creating it) with a snapshot of g at
// epoch 0 and an empty WAL, returning the open store.
func CreateGraphStore(dir string, g *Graph, cfg StoreConfig) (*GraphStore, error) {
	return CreateGraphStoreAt(dir, g, 0, cfg)
}

// CreateGraphStoreAt initializes dir with a snapshot of g at the given
// epoch. A non-zero epoch is the replica-repair install path: the
// snapshot adopts the owner's applied-batch sequence number, so the WAL
// numbers future batches past it and recovery restores the replica at
// the owner's position in the batch stream rather than restarting at 0.
func CreateGraphStoreAt(dir string, g *Graph, epoch uint64, cfg StoreConfig) (*GraphStore, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := WriteGraphSnapshot(snapPath(dir, epoch), g, epoch); err != nil {
		return nil, err
	}
	wal, _, err := store.OpenWAL(filepath.Join(dir, walName), cfg.NoSync)
	if err != nil {
		return nil, err
	}
	wal.AdvanceSeq(epoch)
	return &GraphStore{dir: dir, cfg: cfg, wal: wal}, nil
}

// OpenGraphStore recovers the store in dir: newest valid snapshot, then
// every WAL record past its epoch replayed through a DynGraph. The
// returned graph reflects exactly the acknowledged batches. Snapshots
// that fail validation are skipped (older ones tried in turn); a store
// with no usable snapshot errors.
func OpenGraphStore(dir string, cfg StoreConfig) (*GraphStore, *Graph, RecoveryStats, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	var stats RecoveryStats

	epochs, err := snapshotEpochs(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	var gs *GraphSnapshot
	var openErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		gs, openErr = OpenGraphSnapshot(snapPath(dir, epochs[i]))
		if openErr == nil {
			break
		}
		gs = nil
	}
	if gs == nil {
		if openErr == nil {
			openErr = fmt.Errorf("graph: no snapshot in %s", dir)
		}
		return nil, nil, stats, openErr
	}
	stats.SnapshotLoaded = true
	stats.SnapshotEpoch = gs.Epoch()

	wal, scan, err := store.OpenWAL(filepath.Join(dir, walName), cfg.NoSync)
	if err != nil {
		gs.Close()
		return nil, nil, stats, err
	}
	stats.WALTorn = scan.Torn
	stats.WALCorrupt = scan.Corrupt
	wal.AdvanceSeq(gs.Epoch())

	g := gs.Graph()
	var dyn *DynGraph
	for _, rec := range scan.Records {
		if rec.Seq <= gs.Epoch() {
			continue // already folded into the snapshot
		}
		muts, err := DecodeWALBatch(rec.Payload)
		if err != nil {
			wal.Close()
			gs.Close()
			return nil, nil, stats, fmt.Errorf("graph: WAL record %d: %w", rec.Seq, err)
		}
		if dyn == nil {
			dyn = NewDynGraph(g, DynConfig{})
		}
		if _, err := dyn.ApplyBatch(muts); err != nil {
			wal.Close()
			gs.Close()
			return nil, nil, stats, fmt.Errorf("graph: replaying WAL record %d: %w", rec.Seq, err)
		}
		stats.WALRecords++
	}
	if dyn != nil {
		// Replay rebuilt the graph on the heap (DynGraph clones every row
		// up front); nothing aliases the mapping.
		g = dyn.Snapshot()
	} else {
		// The snapshot-backed graph aliases the mapping, but the store
		// must be closable (DELETE, shutdown) while the recovered graph is
		// still serving in-flight reads — an unmap under a live reader is
		// a segfault, and no layer above tracks the last reader. Hand out
		// a heap copy instead; the stored kernel is still adopted, so
		// recovery never pays the peel.
		g = gs.Materialize()
	}
	gs.Close()
	stats.Elapsed = time.Since(start)
	return &GraphStore{dir: dir, cfg: cfg, wal: wal}, g, stats, nil
}

// AppendBatch logs one effective mutation batch, durably unless the
// store is NoSync. It is the DynGraph commit hook's body.
func (s *GraphStore) AppendBatch(muts []Mutation) error {
	_, err := s.wal.Append(EncodeWALBatch(muts))
	return err
}

// LastSeq returns the WAL's current sequence number.
func (s *GraphStore) LastSeq() uint64 { return s.wal.LastSeq() }

// LoggedBatch is one committed effective mutation batch read back from
// the WAL, with the sequence number it was logged at.
type LoggedBatch struct {
	Seq       uint64
	Mutations []Mutation
}

// BatchesAfter decodes the logged batches with seq > after, in order, and
// reports whether the WAL still covers after. It does not once a
// compaction has folded batches past after into the snapshot: the gap is
// then only in the snapshot, not in the log.
func (s *GraphStore) BatchesAfter(after uint64) ([]LoggedBatch, bool, error) {
	recs, ok, err := s.wal.ReadAfter(after)
	if err != nil || !ok {
		return nil, false, err
	}
	out := make([]LoggedBatch, len(recs))
	for i, rec := range recs {
		muts, err := DecodeWALBatch(rec.Payload)
		if err != nil {
			return nil, false, fmt.Errorf("graph: WAL record %d: %w", rec.Seq, err)
		}
		out[i] = LoggedBatch{Seq: rec.Seq, Mutations: muts}
	}
	return out, true, nil
}

// WALRecords returns how many unfolded records the WAL holds.
func (s *GraphStore) WALRecords() int64 { return s.wal.Records() }

// ShouldCompact reports whether the WAL has outgrown its configured
// bounds and the next quiet moment should fold it into a snapshot.
func (s *GraphStore) ShouldCompact() bool {
	if s.cfg.CompactRecords > 0 && s.wal.Records() >= s.cfg.CompactRecords {
		return true
	}
	return s.cfg.CompactBytes > 0 && s.wal.Size() >= s.cfg.CompactBytes
}

// Compact writes g — which must reflect every logged batch — as a fresh
// snapshot at the WAL's current sequence number, then resets the log and
// removes older snapshots. The snapshot rename is the commit point: a
// crash before it keeps the old snapshot+log; a crash after it recovers
// from the new snapshot, skipping the stale records still in the log.
func (s *GraphStore) Compact(g *Graph) error {
	epoch := s.wal.LastSeq()
	if err := WriteGraphSnapshot(snapPath(s.dir, epoch), g, epoch); err != nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	epochs, err := snapshotEpochs(s.dir)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		if e < epoch {
			if err := os.Remove(snapPath(s.dir, e)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// Sync flushes the WAL — the graceful-shutdown hook for NoSync stores.
func (s *GraphStore) Sync() error { return s.wal.Sync() }

// Dir returns the store's directory.
func (s *GraphStore) Dir() string { return s.dir }

// Close releases the WAL. The graph returned by OpenGraphStore is
// heap-owned and stays valid after Close.
func (s *GraphStore) Close() error {
	return s.wal.Close()
}

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, epoch, snapSuffix))
}

// snapshotEpochs lists the epochs of the snapshot files in dir,
// ascending. Files that merely look like snapshots but do not parse are
// ignored (a crashed temp file never matches the pattern anyway).
func snapshotEpochs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		mid := name[len(snapPrefix) : len(name)-len(snapSuffix)]
		e, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue
		}
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}
