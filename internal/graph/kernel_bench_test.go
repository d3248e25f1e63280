package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel benchmark workloads: one representative per sparsity regime.
// Sizes are chosen so the full matrix stays in seconds; -short shrinks the
// dense instance, which dominates.
func benchKernelGraphs(short bool) []struct {
	name string
	g    *Graph
} {
	denseN := 256
	if short {
		denseN = 96
	}
	return []struct {
		name string
		g    *Graph
	}{
		{"sparse", ErdosRenyi(1024, 0.02, rand.New(rand.NewSource(1)))},
		{fmt.Sprintf("dense_n%d", denseN), ErdosRenyi(denseN, 0.4, rand.New(rand.NewSource(2)))},
		{"planted", mustPlanted(512, 5, 8, 0.05, 3)},
	}
}

func mustPlanted(n, k, count int, bg float64, seed int64) *Graph {
	g, _ := PlantedCliques(n, k, count, bg, rand.New(rand.NewSource(seed)))
	return g
}

// BenchmarkListCliques is the end-to-end listing path (materialized,
// sorted output) across the sparsity regimes and worker counts. The
// output is byte-identical for every worker count; only wall-clock
// changes.
func BenchmarkListCliques(b *testing.B) {
	for _, tc := range benchKernelGraphs(testing.Short()) {
		for _, p := range []int{3, 4} {
			for _, workers := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/p=%d/workers=%d", tc.name, p, workers), func(b *testing.B) {
					b.ReportAllocs()
					var total int
					for i := 0; i < b.N; i++ {
						total += len(tc.g.ListCliquesWorkers(p, workers))
					}
					_ = total
				})
			}
		}
	}
}

// BenchmarkKernelCount is the steady-state kernel benchmark the
// alloc-regression canary pins: single worker, counting mode, kernel and
// arenas warm — 0 allocs/op is the contract (see
// TestKernelSteadyStateZeroAlloc for the hard assertion).
func BenchmarkKernelCount(b *testing.B) {
	for _, tc := range benchKernelGraphs(testing.Short()) {
		b.Run(fmt.Sprintf("%s/p=4", tc.name), func(b *testing.B) {
			tc.g.CountCliquesWorkers(4, 1) // build kernel + arena outside the loop
			b.ReportAllocs()
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				total += tc.g.CountCliquesWorkers(4, 1)
			}
			_ = total
		})
	}
}
