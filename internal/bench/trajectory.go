package bench

// Trajectory files: BENCH_kernel.json, BENCH_store.json,
// BENCH_cluster.json and BENCH_sketch.json are append-only JSON documents
// of the shape {"runs": [run0, run1, ...]}, newest last. Every run starts
// with the same RunHeader and reduces to a list of named ns Cells, so one
// loader, one comparator and one benchfmt writer serve all four suites.
// Appending keeps every existing run as the raw bytes it was committed
// with — history is never re-marshaled through the current structs, so a
// field added to a run type can never silently rewrite (or drop fields
// from) runs recorded by older binaries. Writes are atomic (unique temp
// file + rename), so a crash mid-append can never corrupt the accumulated
// history.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// RunHeader is what every trajectory run records about itself before its
// measurements: when and where it ran, and the run configuration (quick,
// seed) that decides which graphs it measured.
type RunHeader struct {
	Date       string          `json:"date,omitempty"`
	Host       HostFingerprint `json:"host,omitzero"`
	GoVersion  string          `json:"goVersion"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Quick      bool            `json:"quick"`
	Seed       int64           `json:"seed"`
}

// newRunHeader stamps a run measured now on this host.
func newRunHeader(seed int64, quick bool) RunHeader {
	return RunHeader{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Host:       Fingerprint(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Seed:       seed,
	}
}

func (h *RunHeader) header() *RunHeader { return h }

// Cell is one named wall-clock measurement of a run. Name is the Go
// benchmark name without its "Benchmark" prefix (for example
// "Kernel/family=sparse-gnp/n=64/p=4/workers=1"), so one name serves the
// benchfmt line and the -compare table.
type Cell struct {
	Name string
	Ns   int64
}

// Run is one point on a trajectory: *KernelRun, *StoreRun, *ClusterRun or
// *SketchRun.
type Run interface {
	header() *RunHeader
	// Cells lists the run's measurements in benchfmt order.
	Cells() []Cell
	// Table renders the run, per-suite fields included, as text.
	Table() string
}

// rawTrajectory is the generic runs document with each run kept as the
// exact bytes read from disk.
type rawTrajectory struct {
	Runs []json.RawMessage `json:"runs"`
}

// readTrajectory loads the trajectory at path for appending: a missing
// file yields an empty trajectory.
func readTrajectory(path string) (*rawTrajectory, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &rawTrajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	return parseTrajectory(path, buf)
}

// parseTrajectory splits a trajectory document into its raw runs. A
// legacy single-run document (the pre-trajectory BENCH_kernel.json shape:
// a JSON object with "rows" at top level and no "runs") is migrated in
// memory by wrapping it, verbatim, as run 0.
func parseTrajectory(path string, buf []byte) (*rawTrajectory, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(buf, &probe); err != nil {
		return nil, fmt.Errorf("%s is not a trajectory: %w", path, err)
	}
	if runsRaw, ok := probe["runs"]; ok {
		var runs []json.RawMessage
		if err := json.Unmarshal(runsRaw, &runs); err != nil {
			return nil, fmt.Errorf("%s: bad runs array: %w", path, err)
		}
		return &rawTrajectory{Runs: runs}, nil
	}
	if _, ok := probe["rows"]; ok {
		// Legacy frozen baseline: the whole document becomes run 0.
		return &rawTrajectory{Runs: []json.RawMessage{json.RawMessage(buf)}}, nil
	}
	return nil, fmt.Errorf("%s is neither a trajectory ({\"runs\": ...}) nor a legacy baseline ({\"rows\": ...})", path)
}

// AppendRun appends run (marshaled with the current schema) to the
// trajectory at path, creating the file if it does not exist and
// migrating a legacy single-run document by keeping it as run 0, and
// writes the result atomically. It returns the new run count.
func AppendRun(path string, run any) (int, error) {
	doc, err := readTrajectory(path)
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(run)
	if err != nil {
		return 0, err
	}
	doc.Runs = append(doc.Runs, raw)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := WriteFileAtomic(path, append(buf, '\n')); err != nil {
		return 0, err
	}
	return len(doc.Runs), nil
}

// Load reads the trajectory at path and decodes every run as an R (legacy
// single-run documents load as a one-run trajectory). Unlike AppendRun it
// fails on a missing file: a gate pointed at a mistyped path must not
// pass by judging nothing.
func Load[R any, P interface {
	*R
	Run
}](path string) ([]Run, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := parseTrajectory(path, buf)
	if err != nil {
		return nil, err
	}
	runs := make([]Run, len(doc.Runs))
	for i, raw := range doc.Runs {
		run := P(new(R))
		if err := json.Unmarshal(raw, run); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, i, err)
		}
		runs[i] = run
	}
	return runs, nil
}

// WriteFileAtomic writes data to path via a unique temp file in the same
// directory, fsynced and renamed into place — the same overwrite
// discipline internal/store uses for snapshots, so a crash mid-write
// leaves either the old file or the new one, never a truncated hybrid.
// The file keeps the permission bits of the file it replaces; a new file
// gets 0644.
func WriteFileAtomic(path string, data []byte) (err error) {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := tmp.Chmod(mode); err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
