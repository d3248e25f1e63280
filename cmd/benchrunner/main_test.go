package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kplist/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func TestRunSelectedExperiments(t *testing.T) {
	var sb strings.Builder
	// Tiny footprint: quick sizes, only the fast experiments.
	if err := run([]string{"-quick", "-only", "e6"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "==== E6 ====") {
		t.Errorf("missing E6 header:\n%s", out)
	}
	if !strings.Contains(out, "|Er| per ARB-LIST pass") {
		t.Errorf("missing E6 series:\n%s", out)
	}
	if strings.Contains(out, "==== E1 ====") {
		t.Error("-only e6 should not run E1")
	}
}

func TestRunE7(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", "e7"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "bad-edge delaying") {
		t.Errorf("missing ablation series:\n%s", sb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-only", "e99"}, &sb)
	if err == nil {
		t.Fatal("unknown experiment name should error")
	}
	if !strings.Contains(err.Error(), "e99") || !strings.Contains(err.Error(), "e9") {
		t.Errorf("error should name the bad tag and list known ones: %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("unknown tag must not produce output:\n%s", sb.String())
	}
	// The error fires even when valid tags accompany the bad one.
	if err := run([]string{"-only", "e6,nope"}, &sb); err == nil {
		t.Error("mixed valid/unknown tags should error")
	}
}

// checkGolden runs `-quick -only <tags>` and compares the output against
// the committed golden. With the test -update flag it first regenerates
// the golden through the tool's own scoped -update path, so there is
// exactly one write path for golden content.
func checkGolden(t *testing.T, tags, file string, headers ...string) {
	t.Helper()
	args := []string{"-quick", "-only", tags}
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := sb.String()
	for _, h := range headers {
		if !strings.Contains(got, h) {
			t.Fatalf("missing %s header:\n%s", h, got)
		}
	}
	if *update {
		if err := run(append(args, "-update", "-goldendir", "testdata"), io.Discard); err != nil {
			t.Fatalf("golden update: %v", err)
		}
	}
	golden := filepath.Join("testdata", file)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestTheoremExperimentsGolden pins the full -quick output of the
// paper's round-bill experiments (E1–E8), so a change to any engine's
// bill or listing shows up as a diff; TestWorkloadExperimentsGolden the
// workload-family experiments (E9/E10); TestServerExperimentGolden the
// serving experiment (E11); TestDynamicExperimentGolden the dynamic-graph
// churn experiment (E12). Everything printed is deterministic under the
// default seed; regenerate with `go test ./cmd/benchrunner -run Golden
// -update` after intentional changes to the generators, the engines or
// the table format.
func TestTheoremExperimentsGolden(t *testing.T) {
	checkGolden(t, "e1,e2,e3,e4,e5,e6,e7,e8", "theorems_quick.golden",
		"==== E1 ====", "==== E2 ====", "==== E3 ====", "==== E4 ====",
		"==== E5 ====", "==== E6 ====", "==== E7 ====", "==== E8 ====")
}

func TestServerExperimentGolden(t *testing.T) {
	checkGolden(t, "e11", "server_quick.golden", "==== E11 ====")
}

func TestWorkloadExperimentsGolden(t *testing.T) {
	checkGolden(t, "e9,e10", "workloads_quick.golden", "==== E9 ====", "==== E10 ====")
}

func TestDynamicExperimentGolden(t *testing.T) {
	checkGolden(t, "e12", "dynamic_quick.golden", "==== E12 ====")
}

// TestUpdateScopedByOnly pins the golden-hygiene fix: -update rewrites
// exactly the goldens whose experiment sets are fully selected by -only,
// never the rest, and refuses to write a partial group.
func TestUpdateScopedByOnly(t *testing.T) {
	dir := t.TempDir()

	// Selecting e12 only must write dynamic_quick.golden and nothing else.
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", "e12", "-update", "-goldendir", dir}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "dynamic_quick.golden" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("-only e12 -update wrote %v, want exactly dynamic_quick.golden", names)
	}
	// The written golden is exactly the run's E12 output.
	buf, err := os.ReadFile(filepath.Join(dir, "dynamic_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), string(buf)) {
		t.Fatal("written golden does not match the run output")
	}

	// A partially selected group (e9 without e10) must write nothing and
	// say so.
	if err := run([]string{"-quick", "-only", "e9", "-update", "-goldendir", t.TempDir()}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "wrote nothing") {
		t.Fatalf("partial group update should refuse, got %v", err)
	}

	// -update without -quick is a mistake (the goldens pin quick output).
	if err := run([]string{"-only", "e12", "-update"}, io.Discard); err == nil {
		t.Fatal("-update without -quick should error")
	}
}

// TestKernelBaseline runs the kernel throughput sweep in quick mode and
// checks the appended trajectory document: full family × p × workers
// coverage and deterministic clique counts (ns/op is hardware noise and
// not asserted). Worker counts must not change any cell's clique census.
func TestKernelBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", "kernel", "-kernelbench", path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "==== KERNEL ====") {
		t.Errorf("missing kernel table:\n%s", sb.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trajectory not written: %v", err)
	}
	var doc struct {
		Runs []struct {
			GoVersion string `json:"goVersion"`
			Host      struct {
				Cores int `json:"cores"`
			} `json:"host"`
			Rows []struct {
				Family  string `json:"family"`
				P       int    `json:"p"`
				Workers int    `json:"workers"`
				Cliques int64  `json:"cliques"`
				NsPerOp int64  `json:"nsPerOp"`
			} `json:"rows"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("bad trajectory JSON: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("trajectory has %d runs, want 1", len(doc.Runs))
	}
	kb := doc.Runs[0]
	if kb.GoVersion == "" || len(kb.Rows) != 3*3*2 {
		t.Fatalf("run has %d rows (want 18), goVersion %q", len(kb.Rows), kb.GoVersion)
	}
	if kb.Host.Cores <= 0 {
		t.Errorf("run is missing its host fingerprint: %s", buf[:200])
	}
	census := map[string]int64{}
	for _, r := range kb.Rows {
		if r.NsPerOp <= 0 {
			t.Errorf("%s p=%d workers=%d: ns/op %d", r.Family, r.P, r.Workers, r.NsPerOp)
		}
		key := fmt.Sprintf("%s/p=%d", r.Family, r.P)
		if prev, ok := census[key]; ok && prev != r.Cliques {
			t.Errorf("%s: clique census differs across worker counts: %d vs %d", key, prev, r.Cliques)
		}
		census[key] = r.Cliques
	}
	// -only kernel must not run the experiment series.
	if strings.Contains(sb.String(), "==== E6 ====") {
		t.Error("-only kernel should not run E6")
	}
}

// TestKernelTrajectoryAppendsAndMigrates seeds the path with a LEGACY
// single-run baseline document, then appends twice: the legacy document
// must survive verbatim as run 0 and the file must accumulate runs — the
// BENCH_kernel.json migration semantics.
func TestKernelTrajectoryAppendsAndMigrates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	legacy := `{"goVersion":"go1.0-legacy","gomaxprocs":1,"quick":false,"seed":1,"rows":[{"family":"sparse-gnp","n":1024,"m":10562,"p":3,"workers":1,"cliques":1435,"nsPerOp":945455}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		var sb strings.Builder
		if err := run([]string{"-quick", "-only", "kernel", "-kernelbench", path}, &sb); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := fmt.Sprintf("appended run %d to %s", i, path); !strings.Contains(sb.String(), want) {
			t.Errorf("append %d missing %q:\n%s", i, want, sb.String())
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("bad trajectory JSON: %v", err)
	}
	if len(doc.Runs) != 3 {
		t.Fatalf("trajectory has %d runs, want 3 (legacy + 2 appends)", len(doc.Runs))
	}
	var run0 struct {
		GoVersion string `json:"goVersion"`
		Rows      []struct {
			Cliques int64 `json:"cliques"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(doc.Runs[0], &run0); err != nil {
		t.Fatal(err)
	}
	if run0.GoVersion != "go1.0-legacy" || len(run0.Rows) != 1 || run0.Rows[0].Cliques != 1435 {
		t.Errorf("legacy baseline was not preserved as run 0: %s", doc.Runs[0])
	}
	// No stray temp files from the atomic writes.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("append left temp files behind: %v", names)
	}
}

// TestKernelSweepHonorsWorkers pins the -workers bugfix: the kernel sweep
// must measure the requested fan-out, not a hardcoded ladder.
func TestKernelSweepHonorsWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", "kernel", "-workers", "3", "-kernelbench", path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Workers int `json:"workers"`
			Rows    []struct {
				Workers int `json:"workers"`
			} `json:"rows"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(doc.Runs))
	}
	if doc.Runs[0].Workers != 3 {
		t.Errorf("run did not record -workers 3, got %d", doc.Runs[0].Workers)
	}
	counts := map[int]bool{}
	for _, r := range doc.Runs[0].Rows {
		counts[r.Workers] = true
	}
	if !counts[3] || counts[8] {
		t.Errorf("sweep measured worker counts %v, want {1, 3}", counts)
	}
}

// TestUpdateWithNoGoldenPinnedSelection pins the misleading-error bugfix:
// -update with a selection that is never golden-pinned (kernel, e13) must
// explain that instead of failing.
func TestUpdateWithNoGoldenPinnedSelection(t *testing.T) {
	for _, tags := range []string{"kernel", "e13"} {
		dir := t.TempDir()
		var sb strings.Builder
		if err := run([]string{"-quick", "-only", tags, "-update", "-goldendir", dir}, &sb); err != nil {
			t.Fatalf("-only %s -update should not fail: %v", tags, err)
		}
		if !strings.Contains(sb.String(), "never golden-pinned") {
			t.Errorf("-only %s -update should explain there is nothing to update:\n%s", tags, sb.String())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("-only %s -update wrote files: %v", tags, entries)
		}
	}
}

// appendTwice runs the suite tagged tag twice against the same trajectory
// path, checks each run printed its table (marked by header) and reported
// its append, and loads the trajectory back through the suite's loader.
func appendTwice(t *testing.T, tag, header string) (string, []bench.Run) {
	t.Helper()
	i := slices.IndexFunc(suites(), func(s suite) bool { return s.tag == tag })
	s := suites()[i]
	path := filepath.Join(t.TempDir(), "BENCH_"+s.name+".json")
	for i := 1; i <= 2; i++ {
		var sb strings.Builder
		if err := run([]string{"-quick", "-only", tag, "-" + s.flag, path}, &sb); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !strings.Contains(sb.String(), "==== "+strings.ToUpper(tag)+" ====") || !strings.Contains(sb.String(), header) {
			t.Errorf("run %d missing %s table:\n%s", i, tag, sb.String())
		}
		if want := fmt.Sprintf("appended run %d to %s", i, path); !strings.Contains(sb.String(), want) {
			t.Errorf("run %d missing %q:\n%s", i, want, sb.String())
		}
	}
	runs, err := s.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("trajectory has %d runs, want 2", len(runs))
	}
	return path, runs
}

// TestStoreTrajectoryAppends runs E13 twice against the same
// BENCH_store.json and checks the file accumulates runs instead of being
// overwritten — the trajectory semantics the continuous-benchmarking
// direction depends on.
func TestStoreTrajectoryAppends(t *testing.T) {
	_, runs := appendTwice(t, "e13", "cold-open-from-mmap")
	for _, run := range runs {
		r := run.(*bench.StoreRun)
		if r.GoVersion == "" || len(r.Snapshots) != 3 || len(r.WAL) != 2 {
			t.Fatalf("malformed run: %+v", r)
		}
		for _, s := range r.Snapshots {
			if s.ColdOpenNs <= 0 {
				t.Errorf("%s: non-positive cold-open time", s.Family)
			}
		}
	}
}

// TestSketchTrajectoryAppends runs E15 twice and checks both runs carry
// every (n, p) cell with positive timings and the exact count they
// estimate.
func TestSketchTrajectoryAppends(t *testing.T) {
	_, runs := appendTwice(t, "e15", "HLL build")
	for _, run := range runs {
		r := run.(*bench.SketchRun)
		if r.GoVersion == "" || len(r.Measurements) != 4 {
			t.Fatalf("malformed run: %+v", r)
		}
		for _, c := range r.Cells() {
			if c.Ns <= 0 {
				t.Errorf("%s: non-positive measurement %d", c.Name, c.Ns)
			}
		}
		for _, m := range r.Measurements {
			if m.ExactCount <= 0 {
				t.Errorf("n=%d p=%d: exact count %d", m.N, m.P, m.ExactCount)
			}
		}
	}
}

// writeSyntheticKernelTrajectory builds a same-host trajectory of
// baseRuns runs whose cells sit at base ns ± jitter, then one newest run
// scaled by newestScale, and writes it to path.
func writeSyntheticKernelTrajectory(t *testing.T, path string, baseRuns int, newestScale float64) {
	t.Helper()
	host := bench.HostFingerprint{CPU: "synthetic-cpu", Cores: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	mkRun := func(scale float64, jitter int64) bench.KernelRun {
		run := bench.KernelRun{RunHeader: bench.RunHeader{Host: host, GoVersion: host.GoVersion, GOMAXPROCS: 8, Quick: true, Seed: 1}}
		for i, family := range []string{"sparse-gnp", "dense-gnp"} {
			base := int64(1_000_000 * (i + 1))
			run.Rows = append(run.Rows, bench.KernelMeasurement{
				Family: family, N: 128, M: 1000, P: 4, Workers: 1, Cliques: 42,
				NsPerOp: int64(float64(base)*scale) + jitter,
			})
		}
		return run
	}
	for i := 0; i < baseRuns; i++ {
		if _, err := bench.AppendRun(path, mkRun(1.0, int64(i*9000-9000))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bench.AppendRun(path, mkRun(newestScale, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestCompareGate pins the CI regression gate end to end through the CLI:
// an injected ≥10% regression fails with a named cell, within-noise
// jitter passes, and a trajectory with no comparable history is refused,
// not failed.
func TestCompareGate(t *testing.T) {
	t.Run("regression fails", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
		writeSyntheticKernelTrajectory(t, path, 3, 1.5)
		var sb strings.Builder
		err := run([]string{"-compare", "-kernelbench", path}, &sb)
		if err == nil || !strings.Contains(err.Error(), "regression") {
			t.Fatalf("injected 50%% regression should fail the gate, got %v\n%s", err, sb.String())
		}
		if !strings.Contains(sb.String(), "REGRESSED") {
			t.Errorf("report should mark the regressed cells:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "BenchmarkKernel/family=") {
			t.Errorf("compare should emit Go benchfmt:\n%s", sb.String())
		}
	})
	t.Run("jitter passes", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
		writeSyntheticKernelTrajectory(t, path, 3, 1.02)
		var sb strings.Builder
		if err := run([]string{"-compare", "-kernelbench", path}, &sb); err != nil {
			t.Fatalf("2%% jitter should pass the gate: %v\n%s", err, sb.String())
		}
	})
	t.Run("mismatched host refuses", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
		writeSyntheticKernelTrajectory(t, path, 3, 1.0)
		// Append a wildly slower run from a DIFFERENT host: must be
		// refused, not reported as a regression.
		other := bench.KernelRun{
			RunHeader: bench.RunHeader{
				Host:      bench.HostFingerprint{CPU: "other-cpu", Cores: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", OS: "linux", Arch: "arm64"},
				GoVersion: "go1.24.0", GOMAXPROCS: 2, Quick: true, Seed: 1,
			},
			Rows: []bench.KernelMeasurement{{Family: "sparse-gnp", N: 128, M: 1000, P: 4, Workers: 1, Cliques: 42, NsPerOp: 9_000_000}},
		}
		if _, err := bench.AppendRun(path, other); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run([]string{"-compare", "-kernelbench", path}, &sb); err != nil {
			t.Fatalf("cross-host comparison must be refused, not failed: %v\n%s", err, sb.String())
		}
		if !strings.Contains(sb.String(), "comparison skipped") {
			t.Errorf("report should say the comparison was skipped:\n%s", sb.String())
		}
	})
	t.Run("no trajectory given", func(t *testing.T) {
		if err := run([]string{"-compare"}, io.Discard); err == nil {
			t.Fatal("-compare with no trajectory paths should error")
		}
	})
}

// TestCompareMissingTrajectoryFails: a -compare path that does not exist
// fails the gate instead of judging an empty trajectory, for every suite
// flag, while appending to the same path would create it.
func TestCompareMissingTrajectoryFails(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "BENCH_typo.json")
	for _, flag := range []string{"-kernelbench", "-storebench", "-clusterbench", "-sketchbench"} {
		var sb strings.Builder
		err := run([]string{"-compare", flag, missing}, &sb)
		if err == nil || !strings.Contains(err.Error(), "BENCH_typo.json") {
			t.Errorf("-compare %s on a missing file: err=%v, want an error naming the path\n%s", flag, err, sb.String())
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("-compare created %s", missing)
	}
}

// TestStoreBenchRunsWithoutTrajectory checks -only e13 alone prints the
// table and writes nothing.
func TestStoreBenchRunsWithoutTrajectory(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", "e13"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "WAL append throughput") {
		t.Errorf("missing WAL table:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "appended run") {
		t.Errorf("no -storebench given but a trajectory was written:\n%s", sb.String())
	}
}

// TestClusterTrajectoryAppends runs E14 twice against the same
// BENCH_cluster.json and checks the trajectory accumulates well-formed
// runs, with the stream byte counts identical across every (shards,
// replication) cell — the scatter determinism surfaced as a bench
// invariant.
func TestClusterTrajectoryAppends(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep in -short mode")
	}
	path, runs := appendTwice(t, "e14", "scatter–gather")
	for _, run := range runs {
		r := run.(*bench.ClusterRun)
		if r.GoVersion == "" || len(r.Measurements) != 5 {
			t.Fatalf("malformed run: %+v", r)
		}
		for _, c := range r.Measurements {
			if c.StreamNs <= 0 || c.ScatterNs <= 0 || c.PatchNsPerBatch <= 0 {
				t.Errorf("shards=%d repl=%d: non-positive measurement: %+v", c.Shards, c.Replication, c)
			}
			if c.StreamBytes != r.Measurements[0].StreamBytes {
				t.Errorf("shards=%d repl=%d: stream bytes %d differ from cell 0's %d — scatter not byte-identical",
					c.Shards, c.Replication, c.StreamBytes, r.Measurements[0].StreamBytes)
			}
		}
	}
	// -compare on the two-run trajectory must load and render. The huge
	// threshold keeps this a plumbing test: back-to-back quick runs on a
	// loaded test machine can legitimately differ by more than the real
	// gate's 8%.
	var sb strings.Builder
	if err := run([]string{"-compare", "-threshold", "10", "-clusterbench", path}, &sb); err != nil {
		t.Fatalf("compare: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkClusterScatter/") {
		t.Errorf("compare missing cluster benchfmt:\n%s", sb.String())
	}
}
