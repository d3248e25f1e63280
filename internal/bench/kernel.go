package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kplist/internal/graph"
)

// The kernel throughput trajectory: wall-clock measurements of the
// enumeration kernel (DESIGN.md §8) across the sparsity regimes and
// worker counts. `benchrunner -kernelbench` APPENDS each run to
// BENCH_kernel.json (the same runs-trajectory shape BENCH_store.json
// uses) so the listing-path perf history accumulates across commits and
// the -compare gate can judge the newest run against its own host's
// median. Clique counts are deterministic under the seed (and
// sanity-check the run); ns/op is hardware-dependent and deliberately
// kept out of the golden tests.

// KernelMeasurement is one (graph family, p, workers) cell of the sweep.
type KernelMeasurement struct {
	Family  string `json:"family"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	P       int    `json:"p"`
	Workers int    `json:"workers"`
	Cliques int64  `json:"cliques"`
	NsPerOp int64  `json:"nsPerOp"`
}

// KernelRun is one benchrunner invocation's worth of kernel measurements
// — one point on the BENCH_kernel.json trajectory. The pre-trajectory
// BENCH_kernel.json document was exactly this shape minus date, host and
// workers, which is what lets the migration wrap the old frozen baseline
// verbatim as run 0.
type KernelRun struct {
	RunHeader
	// Workers is the -workers flag the sweep ran under (0 = the default
	// {1, 8} ladder); the per-cell counts are in the rows.
	Workers int                 `json:"workers,omitempty"`
	Rows    []KernelMeasurement `json:"rows"`
}

// kernelBenchGraphs builds the family sweep. quick shrinks the dense
// instance, which dominates the runtime.
func kernelBenchGraphs(seed int64, quick bool) []struct {
	family string
	g      *graph.Graph
} {
	sparseN, denseN, plantedN := 1024, 256, 512
	if quick {
		sparseN, denseN, plantedN = 512, 128, 256
	}
	rng := func(off int64) *rand.Rand { return rand.New(rand.NewSource(seed + off)) }
	planted, _ := graph.PlantedCliques(plantedN, 5, 8, 0.05, rng(2))
	return []struct {
		family string
		g      *graph.Graph
	}{
		{"sparse-gnp", graph.ErdosRenyi(sparseN, 0.02, rng(0))},
		{"dense-gnp", graph.ErdosRenyi(denseN, 0.4, rng(1))},
		{"planted", planted},
	}
}

// KernelBench measures the full listing path (enumerate, materialize,
// sort) for every family × p × workers cell, taking the best of reps
// runs after a kernel warm-up. workers sizes the parallel leg of the
// sweep: ≤ 0 keeps the default {1, 8} ladder, 1 measures only the
// sequential leg, and any other value replaces 8 — so `benchrunner
// -workers N` measures the fan-out it will actually serve with.
func KernelBench(seed int64, quick bool, workers int) *KernelRun {
	// Best-of-7: on shared/virtualized hardware a best-of-3 cell still
	// jitters ~10% between back-to-back runs, which is above the -compare
	// gate's 8% base threshold; taking the minimum over more repetitions
	// (external load only ever adds time) keeps run-to-run cell variance
	// comfortably inside the gate.
	reps := 7
	if quick {
		reps = 3
	}
	sweep := []int{1, 8}
	switch {
	case workers == 1:
		sweep = []int{1}
	case workers > 1:
		sweep = []int{1, workers}
	}
	out := &KernelRun{RunHeader: newRunHeader(seed, quick), Workers: max(workers, 0)}
	for _, tc := range kernelBenchGraphs(seed, quick) {
		for _, p := range []int{3, 4, 5} {
			for _, workers := range sweep {
				tc.g.CountCliquesWorkers(p, workers) // warm the kernel + arenas
				best := time.Duration(1<<63 - 1)
				var cliques int64
				for r := 0; r < reps; r++ {
					start := time.Now()
					cs := tc.g.ListCliquesWorkers(p, workers)
					if d := time.Since(start); d < best {
						best = d
					}
					cliques = int64(len(cs))
				}
				out.Rows = append(out.Rows, KernelMeasurement{
					Family:  tc.family,
					N:       tc.g.N(),
					M:       tc.g.M(),
					P:       p,
					Workers: workers,
					Cliques: cliques,
					NsPerOp: best.Nanoseconds(),
				})
			}
		}
	}
	return out
}

// Cells lists one cell per row.
func (b *KernelRun) Cells() []Cell {
	cells := make([]Cell, 0, len(b.Rows))
	for _, r := range b.Rows {
		cells = append(cells, Cell{
			fmt.Sprintf("Kernel/family=%s/n=%d/p=%d/workers=%d", r.Family, r.N, r.P, r.Workers), r.NsPerOp})
	}
	return cells
}

// Table renders the run as an aligned text table (clique counts are
// the deterministic signature; ns/op is informational).
func (b *KernelRun) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# kernel listing throughput (%s, GOMAXPROCS=%d, seed=%d)\n",
		b.GoVersion, b.GOMAXPROCS, b.Seed)
	fmt.Fprintf(&sb, "%12s %6s %8s %3s %8s %12s %14s\n",
		"family", "n", "m", "p", "workers", "cliques", "ns/op")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%12s %6d %8d %3d %8d %12d %14d\n",
			r.Family, r.N, r.M, r.P, r.Workers, r.Cliques, r.NsPerOp)
	}
	return sb.String()
}
