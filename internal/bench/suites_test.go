package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// suiteCase is one trajectory suite under test: a synthetic run maker
// (every measurement scaled by scale), the suite's loader, and the exact
// benchfmt lines of the unscaled run after the host preamble.
type suiteCase struct {
	name     string
	mk       func(h RunHeader, scale float64) Run
	load     func(path string) ([]Run, error)
	benchfmt string
}

func scaled(ns int64, scale float64) int64 { return int64(float64(ns) * scale) }

func suiteCases() []suiteCase {
	return []suiteCase{
		{
			name: "kernel",
			mk: func(h RunHeader, s float64) Run {
				return &KernelRun{RunHeader: h, Rows: []KernelMeasurement{
					{Family: "sparse-gnp", N: 64, M: 500, P: 4, Workers: 1, NsPerOp: scaled(1_000_000, s)},
					{Family: "dense-gnp", N: 32, M: 300, P: 3, Workers: 8, NsPerOp: scaled(2_500_000, s)},
				}}
			},
			load: Load[KernelRun],
			benchfmt: "BenchmarkKernel/family=sparse-gnp/n=64/p=4/workers=1 \t1\t1000000 ns/op\n" +
				"BenchmarkKernel/family=dense-gnp/n=32/p=3/workers=8 \t1\t2500000 ns/op\n",
		},
		{
			name: "store",
			mk: func(h RunHeader, s float64) Run {
				return &StoreRun{RunHeader: h,
					Snapshots: []StoreMeasurement{{Family: "planted", N: 512,
						WriteNs: scaled(1_000_000, s), ColdOpenNs: scaled(500_000, s), RebuildNs: scaled(2_000_000, s)}},
					WAL: []WALMeasurement{
						{Fsync: false, NsPerBatch: scaled(40_000, s)},
						{Fsync: true, NsPerBatch: scaled(150_000, s)},
					},
				}
			},
			load: Load[StoreRun],
			benchfmt: "BenchmarkStoreWrite/family=planted/n=512 \t1\t1000000 ns/op\n" +
				"BenchmarkStoreColdOpen/family=planted/n=512 \t1\t500000 ns/op\n" +
				"BenchmarkStoreRebuild/family=planted/n=512 \t1\t2000000 ns/op\n" +
				"BenchmarkWALAppend/fsync=false \t1\t40000 ns/op\n" +
				"BenchmarkWALAppend/fsync=true \t1\t150000 ns/op\n",
		},
		{
			name: "cluster",
			mk: func(h RunHeader, s float64) Run {
				return &ClusterRun{RunHeader: h, Measurements: []ClusterMeasurement{
					{Shards: 2, Replication: 1, N: 120,
						StreamNs: scaled(100_000, s), ScatterNs: scaled(200_000, s), PatchNsPerBatch: scaled(150_000, s)},
				}}
			},
			load: Load[ClusterRun],
			benchfmt: "BenchmarkClusterStream/shards=2/repl=1/n=120 \t1\t100000 ns/op\n" +
				"BenchmarkClusterScatter/shards=2/repl=1/n=120 \t1\t200000 ns/op\n" +
				"BenchmarkClusterPatch/shards=2/repl=1/n=120 \t1\t150000 ns/op\n",
		},
		{
			name: "sketch",
			mk: func(h RunHeader, s float64) Run {
				return &SketchRun{RunHeader: h, Measurements: []SketchMeasurement{
					{Family: "stochastic-block", N: 128, P: 3, ExactNs: scaled(1_000_000, s),
						SketchBuildNs: scaled(2_000_000, s), SketchQueryNs: scaled(10_000, s), SampleNs: scaled(300_000, s)},
				}}
			},
			load: Load[SketchRun],
			benchfmt: "BenchmarkSketchExact/family=stochastic-block/n=128/p=3 \t1\t1000000 ns/op\n" +
				"BenchmarkSketchBuild/family=stochastic-block/n=128/p=3 \t1\t2000000 ns/op\n" +
				"BenchmarkSketchWarm/family=stochastic-block/n=128/p=3 \t1\t10000 ns/op\n" +
				"BenchmarkSketchSample/family=stochastic-block/n=128/p=3 \t1\t300000 ns/op\n",
		},
	}
}

func synthHeader(host HostFingerprint) RunHeader {
	return RunHeader{Host: host, GoVersion: host.GoVersion, GOMAXPROCS: host.GOMAXPROCS, Quick: true, Seed: 1}
}

// TestSuitesBenchfmt pins the exact benchfmt lines of one synthetic run
// per suite (the same lines each suite's own writer produced before the
// suites shared one).
func TestSuitesBenchfmt(t *testing.T) {
	const preamble = "goos: linux\ngoarch: amd64\ncpu: test-cpu\n"
	for _, tc := range suiteCases() {
		if got, want := Benchfmt(tc.mk(synthHeader(synthHost()), 1)), preamble+tc.benchfmt; got != want {
			t.Errorf("%s benchfmt:\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

// TestSuitesGate drives every suite through append, load and compare: a
// newest run at 1.5x regresses every cell, 1.02x passes, and a newest run
// from another host is refused.
func TestSuitesGate(t *testing.T) {
	other := synthHost()
	other.CPU = "other-cpu"
	for _, tc := range suiteCases() {
		for _, gate := range []struct {
			name      string
			host      HostFingerprint
			scale     float64
			regressed bool
		}{
			{"slowdown", synthHost(), 1.5, true},
			{"jitter", synthHost(), 1.02, false},
			{"other-host", other, 1.5, false},
		} {
			t.Run(tc.name+"/"+gate.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "BENCH.json")
				for _, s := range []float64{1, 1.01, 0.99} {
					if _, err := AppendRun(path, tc.mk(synthHeader(synthHost()), s)); err != nil {
						t.Fatal(err)
					}
				}
				newest := tc.mk(synthHeader(gate.host), gate.scale)
				if _, err := AppendRun(path, newest); err != nil {
					t.Fatal(err)
				}
				runs, err := tc.load(path)
				if err != nil {
					t.Fatal(err)
				}
				r := Compare(tc.name, runs, 0)
				if gate.host != synthHost() {
					if r.Skipped == "" || len(r.Cells) != 0 {
						t.Fatalf("cross-host comparison not refused: %+v", r.Cells)
					}
					return
				}
				if r.Skipped != "" || len(r.Cells) != len(newest.Cells()) {
					t.Fatalf("skipped=%q, %d verdicts for %d cells", r.Skipped, len(r.Cells), len(newest.Cells()))
				}
				want := 0
				if gate.regressed {
					want = len(r.Cells)
				}
				if got := len(r.Regressions()); got != want {
					t.Fatalf("%d regressed cells, want %d:\n%s", got, want, r.Table())
				}
			})
		}
	}
}

// TestSuitesAppend: appending creates the trajectory, then each append
// adds one trailing run, marshaled with the current schema, and leaves
// every earlier run's bytes untouched.
func TestSuitesAppend(t *testing.T) {
	for _, tc := range suiteCases() {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		var before []json.RawMessage
		for i := 0; i < 3; i++ {
			run := tc.mk(synthHeader(synthHost()), 1+float64(i)/10)
			n, err := AppendRun(path, run)
			if err != nil {
				t.Fatal(err)
			}
			after := rawRuns(t, path)
			if n != len(before)+1 || len(after) != n {
				t.Fatalf("%s append %d: AppendRun says %d runs, file has %d, want %d", tc.name, i, n, len(after), len(before)+1)
			}
			for j, prev := range before {
				if !bytes.Equal(prev, after[j]) {
					t.Fatalf("%s append %d rewrote run %d:\nwas %s\nnow %s", tc.name, i, j, prev, after[j])
				}
			}
			want, _ := json.Marshal(run)
			var got bytes.Buffer
			if err := json.Compact(&got, after[n-1]); err != nil || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s append %d: trailing run is %s, want %s", tc.name, i, after[n-1], want)
			}
			before = after
		}
	}
}

// TestCommittedTrajectoriesLoad: every run of the four committed
// trajectories decodes through the one loader and yields cells.
func TestCommittedTrajectoriesLoad(t *testing.T) {
	for _, tc := range suiteCases() {
		path := filepath.Join("..", "..", "BENCH_"+tc.name+".json")
		runs, err := tc.load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) == 0 {
			t.Fatalf("%s: no runs", path)
		}
		for i, run := range runs {
			cells := run.Cells()
			if len(cells) == 0 {
				t.Errorf("%s run %d: no cells", path, i)
			}
			for _, c := range cells {
				if c.Ns <= 0 {
					t.Errorf("%s run %d: cell %s has %d ns", path, i, c.Name, c.Ns)
				}
			}
		}
	}
}
