// Command benchrunner regenerates every experiment series indexed in
// DESIGN.md §4 (the paper's per-theorem round-complexity artefacts) and drives the continuous-benchmarking loop (DESIGN.md
// §11). Run with no flags for the full suite, or select experiments with
// -only.
//
//	benchrunner                 # everything, default sizes
//	benchrunner -only e1,e3     # selected experiments
//	benchrunner -quick          # small sizes (seconds instead of minutes)
//	benchrunner -quick -update  # regenerate the committed goldens
//
// Continuous benchmarking (DESIGN.md §11):
//
//	benchrunner -kernelbench BENCH_kernel.json   # append a kernel run to the trajectory
//	benchrunner -only e13 -storebench BENCH_store.json
//	benchrunner -only e14 -clusterbench BENCH_cluster.json
//	benchrunner -only e15 -sketchbench BENCH_sketch.json
//	benchrunner -compare -kernelbench BENCH_kernel.json -storebench BENCH_store.json \
//	    -clusterbench BENCH_cluster.json -sketchbench BENCH_sketch.json
//
// -compare emits the newest run of each given trajectory in standard Go
// benchfmt, judges it against the median of the trajectory's same-host
// history, and exits non-zero on regression or on a trajectory path that
// does not exist — the CI bench-gate job.
//
// Golden maintenance: -update rewrites the golden files under -goldendir
// (default cmd/benchrunner/testdata when run from the repo root) — and it
// is scoped by -only: a golden is rewritten only when every experiment it
// pins is selected, so `-only e11 -update` refreshes server_quick.golden
// and leaves the others byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"kplist/internal/bench"
)

// golden binds one committed golden file to the experiments whose -quick
// output it pins.
type golden struct {
	file string
	tags []string
}

// goldens is the registry of committed golden files. The file content is
// exactly the output of `benchrunner -quick -only <tags>`.
func goldens() []golden {
	return []golden{
		{file: "theorems_quick.golden", tags: []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}},
		{file: "workloads_quick.golden", tags: []string{"e9", "e10"}},
		{file: "server_quick.golden", tags: []string{"e11"}},
		{file: "dynamic_quick.golden", tags: []string{"e12"}},
	}
}

// suite is one wall-clock trajectory: the -only tag that runs it, the
// flag naming its trajectory file, the name its compare report carries,
// how to measure a run and how to load the trajectory. Suites are never
// golden-pinned and run only when selected by tag or given a path.
type suite struct {
	tag, flag, name string
	measure         func(seed int64, quick bool, workers int) (bench.Run, error)
	load            func(path string) ([]bench.Run, error)
	path            string // the flag's value
}

func suites() []suite {
	return []suite{
		{tag: "kernel", flag: "kernelbench", name: "kernel", load: bench.Load[bench.KernelRun],
			measure: func(seed int64, quick bool, workers int) (bench.Run, error) {
				return bench.KernelBench(seed, quick, workers), nil
			}},
		{tag: "e13", flag: "storebench", name: "store", load: bench.Load[bench.StoreRun],
			measure: func(seed int64, quick bool, _ int) (bench.Run, error) { return bench.StoreBench(seed, quick) }},
		{tag: "e14", flag: "clusterbench", name: "cluster", load: bench.Load[bench.ClusterRun],
			measure: func(seed int64, quick bool, _ int) (bench.Run, error) { return bench.ClusterBench(seed, quick) }},
		{tag: "e15", flag: "sketchbench", name: "sketch", load: bench.Load[bench.SketchRun],
			measure: func(seed int64, quick bool, _ int) (bench.Run, error) { return bench.SketchBench(seed, quick) }},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "comma-separated experiments to run (e1..e15, kernel); empty = all")
		quick     = fs.Bool("quick", false, "small sizes for a fast smoke run")
		seed      = fs.Int64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "host goroutines for parallel-phase simulation and the kernel sweep fan-out (0 = GOMAXPROCS / the default {1,8} ladder)")
		update    = fs.Bool("update", false, "rewrite the golden files whose experiments are all selected (requires -quick; scoped by -only)")
		goldenDir = fs.String("goldendir", filepath.Join("cmd", "benchrunner", "testdata"), "directory holding the golden files -update rewrites")
		compare   = fs.Bool("compare", false, "compare the newest run of each given trajectory (-kernelbench, -storebench, -clusterbench, -sketchbench) against its same-host history (Go benchfmt output; non-zero exit on regression or a missing trajectory file) instead of running experiments")
		threshold = fs.Float64("threshold", bench.DefaultCompareThreshold, "base relative regression threshold for -compare (widened per cell by historical noise)")
	)
	suites := suites()
	for i := range suites {
		s := &suites[i]
		fs.StringVar(&s.path, s.flag, "", fmt.Sprintf(
			"append this run to the %s trajectory (BENCH_%s.json) at this path; implies -only %s", s.name, s.name, s.tag))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	if *only != "" {
		for _, tag := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(tag))] = true
		}
	}
	enabled := func(tag string) bool { return len(want) == 0 || want[tag] }
	if *update && !*quick {
		return fmt.Errorf("-update rewrites the -quick goldens; run with -quick")
	}
	if *compare {
		return runCompare(w, suites, *threshold)
	}

	cfg := bench.Config{Seed: *seed, Workers: *workers}
	ablN, ccN := 240, 200
	if *quick {
		cfg.Sizes = []int{256, 384, 512}
		cfg.EdgeCounts = []int{250, 500, 1000, 2000, 4000}
		cfg.CCN = 128
		cfg.Ps = []int{4, 5}
		cfg.WorkloadSizes = []int{96, 128, 192}
		cfg.PoolSizes = []int{1, 2, 3}
		cfg.DynN = 96
		ablN, ccN = 96, 100
	}

	type runner struct {
		tag string
		fn  func() ([]bench.Series, error)
	}
	runners := []runner{
		{"e1", func() ([]bench.Series, error) { return bench.E1Theorem11(cfg) }},
		{"e2", func() ([]bench.Series, error) { return bench.E2FastK4(cfg) }},
		{"e3", func() ([]bench.Series, error) { return bench.E3CongestedClique(cfg) }},
		{"e4", func() ([]bench.Series, error) { return bench.E4Comparison(cfg) }},
		{"e5", func() ([]bench.Series, error) { return bench.E5LowerBoundGap(cfg) }},
		{"e6", func() ([]bench.Series, error) { return bench.E6IterativeDecay(ablN, 0.4, *seed, *workers) }},
		{"e7", func() ([]bench.Series, error) { return bench.E7Ablations(ablN, 0.4, *seed, *workers) }},
		{"e8", func() ([]bench.Series, error) { return bench.E8CountingVsListing(ccN, *seed) }},
		{"e9", func() ([]bench.Series, error) { return bench.E9WorkloadFamilies(cfg) }},
		{"e10", func() ([]bench.Series, error) { return bench.E10SessionAmortization(cfg) }},
		{"e11", func() ([]bench.Series, error) { return bench.E11ServerThroughput(cfg) }},
		{"e12", func() ([]bench.Series, error) { return bench.E12IncrementalChurn(cfg) }},
	}
	var tags []string
	for _, r := range runners {
		tags = append(tags, r.tag)
	}
	for _, s := range suites {
		tags = append(tags, s.tag)
	}
	for tag := range want {
		if !slices.Contains(tags, tag) {
			return fmt.Errorf("unknown experiment %q (known: %s)", tag, strings.Join(tags, ", "))
		}
	}
	outputs := map[string]string{}
	for _, r := range runners {
		if !enabled(r.tag) {
			continue
		}
		series, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.tag, err)
		}
		section := fmt.Sprintf("==== %s ====\n%s", strings.ToUpper(r.tag), bench.RenderAll(series))
		outputs[r.tag] = section
		fmt.Fprint(w, section)
	}
	// The wall-clock suites are never golden-pinned, so each runs only
	// when asked for: via -only <tag>, or implicitly when its trajectory
	// path is given. The JSON output is an APPENDED trajectory (atomic
	// temp-file + rename, the same overwrite discipline as the store),
	// never an overwritten sample.
	for _, s := range suites {
		if !want[s.tag] && s.path == "" {
			continue
		}
		fmt.Fprintf(w, "==== %s ====\n", strings.ToUpper(s.tag))
		measured, err := s.measure(*seed, *quick, *workers)
		if err != nil {
			return fmt.Errorf("%s: %w", s.tag, err)
		}
		fmt.Fprint(w, measured.Table())
		if s.path != "" {
			n, err := bench.AppendRun(s.path, measured)
			if err != nil {
				return fmt.Errorf("%s trajectory: %w", s.name, err)
			}
			fmt.Fprintf(w, "appended run %d to %s\n", n, s.path)
		}
	}
	if *update {
		return updateGoldens(w, *goldenDir, outputs, enabled)
	}
	return nil
}

// runCompare is the -compare mode: load each given trajectory, emit the
// newest run as Go benchfmt, judge it against the same-host history, and
// error (non-zero exit) when any cell regressed or a trajectory file does
// not exist. A trajectory whose newest run has no comparable history is
// REFUSED — reported and skipped, never failed — so a new machine's first
// run cannot masquerade as a regression.
func runCompare(w io.Writer, suites []suite, threshold float64) error {
	var flags, regressed []string
	compared := 0
	for _, s := range suites {
		flags = append(flags, "-"+s.flag)
		if s.path == "" {
			continue
		}
		compared++
		runs, err := s.load(s.path)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		if n := len(runs); n > 0 {
			fmt.Fprint(w, bench.Benchfmt(runs[n-1]))
		}
		report := bench.Compare(s.name, runs, threshold)
		fmt.Fprint(w, report.Table())
		for _, c := range report.Regressions() {
			regressed = append(regressed, c.Name)
		}
	}
	if compared == 0 {
		return fmt.Errorf("-compare needs at least one trajectory: give %s", strings.Join(flags, ", "))
	}
	if len(regressed) > 0 {
		return fmt.Errorf("performance regression in %d cell(s): %s",
			len(regressed), strings.Join(regressed, ", "))
	}
	return nil
}

// updateGoldens rewrites each registered golden whose experiments were all
// selected this run; partially selected groups are skipped (a golden must
// never be written with half its sections missing).
func updateGoldens(w io.Writer, dir string, outputs map[string]string, enabled func(string) bool) error {
	wrote := 0
	for _, gl := range goldens() {
		complete := true
		var content strings.Builder
		for _, tag := range gl.tags {
			if !enabled(tag) {
				complete = false
				break
			}
			content.WriteString(outputs[tag])
		}
		if !complete {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("golden update: %w", err)
		}
		path := filepath.Join(dir, gl.file)
		if err := os.WriteFile(path, []byte(content.String()), 0o644); err != nil {
			return fmt.Errorf("golden update: %w", err)
		}
		fmt.Fprintf(w, "updated %s\n", path)
		wrote++
	}
	if wrote == 0 {
		// Distinguish "you selected half a golden group" (a mistake worth
		// failing on) from "nothing you selected is golden-pinned at all"
		// (the wall-clock suites are never golden-pinned, so
		// `-only kernel -update` has nothing to do and should say so, not
		// fail with a misleading error).
		anyPinned := false
		for _, gl := range goldens() {
			for _, tag := range gl.tags {
				if enabled(tag) {
					anyPinned = true
				}
			}
		}
		if !anyPinned {
			fmt.Fprintln(w, "-update: selection contains no golden-pinned experiments (the kernel, e13, e14 and e15 sweeps are wall-clock and never golden-pinned); nothing to update")
			return nil
		}
		return fmt.Errorf("-update wrote nothing: no golden's experiment set is fully selected")
	}
	return nil
}
