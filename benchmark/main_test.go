package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kplist/internal/graph"
)

// asMainEnv makes the test binary behave as the benchmark binary, so the
// parent path's re-exec of os.Executable() -child runs a real child.
const asMainEnv = "KPLISTBENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runBench runs the benchmark through its parent path and returns the
// exit code, the decoded last line and stderr.
func runBench(t *testing.T, args ...string) (int, map[string]json.RawMessage, string) {
	t.Helper()
	t.Setenv(asMainEnv, "1")
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil && code == 0 {
		t.Fatalf("last stdout line %q: %v\nstderr:\n%s", lines[len(lines)-1], err, stderr.String())
	}
	return code, last, stderr.String()
}

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsTiny runs every workload at a tiny size in both modes: all
// checks must pass, and the printed metric names and units must equal
// BENCHMARK.json's lists, so code and file cannot drift.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadTestSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []metricSpec
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				code, last, stderr := runBench(t, "-workload", w.name, "-seed", "3", "-seconds", "1",
					"-trace", mode.trace, "-tiny", "-spans", filepath.Join(t.TempDir(), "spans.jsonl"))
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr)
				}
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Fatalf("result keys %v", keys)
				}
				var res result
				raw, _ := json.Marshal(last)
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptExpectationFails proves the checks bite: with one expected
// answer off by one, the run reports failures and exits non-zero.
func TestCorruptExpectationFails(t *testing.T) {
	for _, w := range []string{"node-read-hot", "node-write-durable"} {
		code, last, stderr := runBench(t, "-workload", w, "-seed", "1", "-seconds", "0.5", "-tiny", "-corrupt")
		if code == 0 {
			t.Fatalf("%s: exit 0 with corrupted expectations\n%s", w, stderr)
		}
		if string(last["correct"]) != "false" {
			t.Fatalf("%s: correct=%s, want false", w, last["correct"])
		}
	}
}

// TestWriteTraceCycles checks that a write graph's batches never run out:
// every batch of two full cycles is effective, and each cycle ends on the
// uploaded graph.
func TestWriteTraceCycles(t *testing.T) {
	p, err := buildPlan(workloadByName("node-write-durable"), 5, true)
	if err != nil {
		t.Fatal(err)
	}
	in := p.inputs[p.writer[0]]
	d := graph.NewDynGraph(in.g, graph.DynConfig{})
	want := exportEdges(in.g)
	for k := 0; k < 4*len(in.trace); k++ {
		b := in.batch(k)
		res, err := d.ApplyBatch(b)
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if adds, dels := batchEffect(b); len(res.AddedEdges) != adds || len(res.RemovedEdges) != dels {
			t.Fatalf("batch %d: added %d removed %d, want %d %d", k, len(res.AddedEdges), len(res.RemovedEdges), adds, dels)
		}
		if (k+1)%(2*len(in.trace)) == 0 && !slices.Equal(exportEdges(d.Snapshot()), want) {
			t.Fatalf("after batch %d the graph is not the uploaded one", k)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts checks -compare's verdicts on synthetic records.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, values map[string][]float64) string {
		d := filepath.Join(dir, sub)
		for name, vs := range values {
			for i, v := range vs {
				rec := record{Workload: "node-read-hot", Seed: int64(i + 1),
					Result: result{Metrics: map[string]metric{name: {v, "x"}}}}
				if err := appendRecord(filepath.Join(d, name+".jsonl"), rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return d
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	a := write("a", map[string][]float64{"p50_ms": base, "ops_per_s": base, "setup_s": base})
	b := write("b", map[string][]float64{"p50_ms": shift(0.8), "ops_per_s": shift(0.7), "setup_s": shift(1.01)})
	var stdout, stderr bytes.Buffer
	code := compareDirs(a, b, filepath.Join("..", "BENCHMARK.json"), &stdout, &stderr)
	out := stdout.String()
	for metric, verdict := range map[string]string{"p50_ms": "improved", "ops_per_s": "regressed", "setup_s": "unchanged"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("compare verdict for %s is not %s:\n%s", metric, verdict, out)
		}
	}
	if code != 1 {
		t.Errorf("compare exit %d with a regression, want 1\n%s%s", code, out, stderr.String())
	}
}
