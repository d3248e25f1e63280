package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kplist/internal/graph"
	"kplist/internal/store"
)

// E13 measures the persistence path (DESIGN.md §10): how fast a graph
// comes back from an mmap'd snapshot versus rebuilding it from its edge
// list, and how many mutation batches the WAL can commit per second with
// and without the per-batch fsync. Everything here is wall-clock, so E13
// is never golden-pinned; `benchrunner -storebench BENCH_store.json`
// APPENDS each run to the committed trajectory instead of freezing a
// single sample — the first step toward continuous benchmarking.

// StoreMeasurement is one family's snapshot round-trip cell. Both the
// cold-open and the rebuild legs end with the same p=3 census, so their
// difference isolates construction (mmap adoption vs CSR re-derivation).
type StoreMeasurement struct {
	Family        string  `json:"family"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	SnapshotBytes int64   `json:"snapshotBytes"`
	WriteNs       int64   `json:"writeNs"`
	ColdOpenNs    int64   `json:"coldOpenNs"`
	RebuildNs     int64   `json:"rebuildNs"`
	Speedup       float64 `json:"speedup"`
}

// WALMeasurement is one fsync-policy cell of the append-throughput sweep.
type WALMeasurement struct {
	Fsync      bool    `json:"fsync"`
	BatchBytes int     `json:"batchBytes"`
	Batches    int     `json:"batches"`
	NsPerBatch int64   `json:"nsPerBatch"`
	MBPerSec   float64 `json:"mbPerSec"`
}

// StoreRun is one benchrunner invocation's worth of measurements — one
// point on the BENCH_store.json trajectory.
type StoreRun struct {
	RunHeader
	Snapshots []StoreMeasurement `json:"snapshots"`
	WAL       []WALMeasurement   `json:"wal"`
}

// StoreBench runs the persistence sweep in a throwaway directory. It
// reuses the kernel-sweep graph families so the snapshot numbers line up
// with the BENCH_kernel.json listing numbers.
func StoreBench(seed int64, quick bool) (*StoreRun, error) {
	dir, err := os.MkdirTemp("", "kplist-storebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Best-of-7 for the same reason as the kernel sweep: these are sub-ms
	// file-I/O cells whose single-shot times jitter well past the -compare
	// gate's threshold on shared disks; the minimum over more repetitions
	// is the stable statistic (interference only ever adds time).
	reps := 7
	if quick {
		reps = 3
	}
	run := &StoreRun{RunHeader: newRunHeader(seed, quick)}
	for i, tc := range kernelBenchGraphs(seed, quick) {
		path := filepath.Join(dir, fmt.Sprintf("bench-%d.kpsnap", i))
		edges := tc.g.Edges()
		n := tc.g.N()

		// Snapshot write (the first call also forces the kernel build on
		// tc.g, so warm once before timing).
		if err := graph.WriteGraphSnapshot(path, tc.g, 0); err != nil {
			return nil, fmt.Errorf("storebench %s: %w", tc.family, err)
		}
		write := bestOf(reps, func() error { return graph.WriteGraphSnapshot(path, tc.g, 0) })
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}

		// Cold open: mmap the snapshot, adopt its CSR, run one census.
		cold := bestOf(reps, func() error {
			gs, err := graph.OpenGraphSnapshot(path)
			if err != nil {
				return err
			}
			gs.Graph().CountCliquesWorkers(3, 1)
			return gs.Close()
		})
		// Rebuild: the same graph from its edge list, kernel re-derived,
		// same census.
		rebuild := bestOf(reps, func() error {
			g, err := graph.New(n, edges)
			if err != nil {
				return err
			}
			g.CountCliquesWorkers(3, 1)
			return nil
		})
		run.Snapshots = append(run.Snapshots, StoreMeasurement{
			Family:        tc.family,
			N:             n,
			M:             tc.g.M(),
			SnapshotBytes: fi.Size(),
			WriteNs:       write.Nanoseconds(),
			ColdOpenNs:    cold.Nanoseconds(),
			RebuildNs:     rebuild.Nanoseconds(),
			Speedup:       float64(rebuild) / float64(cold),
		})
	}

	// WAL append throughput: a fixed 16-mutation batch, committed with
	// and without the per-batch fsync.
	payload := graph.EncodeWALBatch(walBenchBatch(16))
	for _, fsync := range []bool{false, true} {
		batches := 4096
		if fsync {
			batches = 128 // each append pays a real fsync
		}
		if quick {
			batches /= 4
		}
		walPath := filepath.Join(dir, fmt.Sprintf("bench-fsync-%v.wal", fsync))
		w, _, err := store.OpenWAL(walPath, !fsync)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < batches; i++ {
			if _, err := w.Append(payload); err != nil {
				w.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		if err := w.Close(); err != nil {
			return nil, err
		}
		run.WAL = append(run.WAL, WALMeasurement{
			Fsync:      fsync,
			BatchBytes: len(payload),
			Batches:    batches,
			NsPerBatch: elapsed.Nanoseconds() / int64(batches),
			MBPerSec:   float64(len(payload)*batches) / 1e6 / elapsed.Seconds(),
		})
	}
	return run, nil
}

// walBenchBatch builds a deterministic mutation batch of the given size.
func walBenchBatch(size int) []graph.Mutation {
	muts := make([]graph.Mutation, size)
	for i := range muts {
		muts[i] = graph.Mutation{
			Op:   graph.MutAdd,
			Edge: graph.Edge{U: graph.V(i), V: graph.V(i + 1)},
		}
	}
	return muts
}

// bestOf times fn reps times and returns the fastest run; fn errors are
// surfaced as a poisoned (maximal) duration so the caller's numbers are
// visibly wrong rather than silently optimistic.
func bestOf(reps int, fn func() error) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return best
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Cells lists the three snapshot legs of each family, then one WAL cell
// per fsync policy.
func (r *StoreRun) Cells() []Cell {
	var cells []Cell
	for _, s := range r.Snapshots {
		base := fmt.Sprintf("/family=%s/n=%d", s.Family, s.N)
		cells = append(cells,
			Cell{"StoreWrite" + base, s.WriteNs},
			Cell{"StoreColdOpen" + base, s.ColdOpenNs},
			Cell{"StoreRebuild" + base, s.RebuildNs})
	}
	for _, w := range r.WAL {
		cells = append(cells, Cell{fmt.Sprintf("WALAppend/fsync=%v", w.Fsync), w.NsPerBatch})
	}
	return cells
}

// Table renders the run as an aligned text table (wall-clock —
// informational, never golden-pinned).
func (r *StoreRun) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# persistence: cold-open-from-mmap vs rebuild-from-edges (%s, GOMAXPROCS=%d, seed=%d)\n",
		r.GoVersion, r.GOMAXPROCS, r.Seed)
	fmt.Fprintf(&sb, "%12s %6s %8s %12s %12s %14s %14s %8s\n",
		"family", "n", "m", "snapBytes", "write-ns", "cold-open-ns", "rebuild-ns", "speedup")
	for _, m := range r.Snapshots {
		fmt.Fprintf(&sb, "%12s %6d %8d %12d %12d %14d %14d %7.2fx\n",
			m.Family, m.N, m.M, m.SnapshotBytes, m.WriteNs, m.ColdOpenNs, m.RebuildNs, m.Speedup)
	}
	fmt.Fprintf(&sb, "# WAL append throughput (16-mutation batches)\n")
	fmt.Fprintf(&sb, "%8s %12s %10s %14s %10s\n", "fsync", "batchBytes", "batches", "ns/batch", "MB/s")
	for _, m := range r.WAL {
		fmt.Fprintf(&sb, "%8v %12d %10d %14d %10.1f\n",
			m.Fsync, m.BatchBytes, m.Batches, m.NsPerBatch, m.MBPerSec)
	}
	return sb.String()
}
