package graph

import (
	"math/rand"
	"testing"
)

// churnPair builds a 1%-of-edges batch and its exact inverse, so a
// benchmark can apply them alternately and keep the graph (and the
// maintained listing) at its starting point across iterations.
func churnPair(g *Graph, frac float64, seed int64) (fwd, rev []Mutation) {
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	k := max(1, int(float64(len(edges))*frac))
	for _, i := range rng.Perm(len(edges))[:k] {
		fwd = append(fwd, Mutation{MutDel, edges[i]})
		rev = append(rev, Mutation{MutAdd, edges[i]})
	}
	return fwd, rev
}

// BenchmarkDynGraphApplyIncremental times the incremental clique-delta
// engine on the acceptance workload: G(256, 0.4), p = 4, 1%-of-edges
// batches. Compare against BenchmarkDynGraphApplyRebuild — the same
// batches through the full-rebuild fallback — for the E12 speedup.
func BenchmarkDynGraphApplyIncremental(b *testing.B) {
	benchDynApply(b, DynConfig{})
}

// BenchmarkDynGraphApplyRebuild forces every batch through the
// full-rebuild fallback (threshold floored), the cost incremental
// maintenance avoids.
func BenchmarkDynGraphApplyRebuild(b *testing.B) {
	benchDynApply(b, DynConfig{RebuildFraction: 1e-12, RebuildMinBatch: -1})
}

func benchDynApply(b *testing.B, cfg DynConfig) {
	g := ErdosRenyi(256, 0.4, rand.New(rand.NewSource(1)))
	d := NewDynGraph(g, cfg, 4)
	fwd, rev := churnPair(g, 0.01, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := fwd
		if i%2 == 1 {
			batch = rev
		}
		if _, err := d.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDynGraphApplyAllocs is an alloc-regression canary for the
// incremental engine on the benchmark's workload: one 1%-of-edges batch on
// G(256, 0.4) with p = 4 tracked patches the maintained listing through
// clique bags, at a few allocations per frontier edge, not one or more per
// clique (string-keyed sets took about 92,000 per batch).
func TestDynGraphApplyAllocs(t *testing.T) {
	g := ErdosRenyi(256, 0.4, rand.New(rand.NewSource(1)))
	d := NewDynGraph(g, DynConfig{}, 4)
	fwd, rev := churnPair(g, 0.01, 7)
	i := 0
	allocs := testing.AllocsPerRun(4, func() {
		batch := fwd
		if i%2 == 1 {
			batch = rev
		}
		i++
		delta, err := d.ApplyBatch(batch)
		if err != nil || delta.Rebuilt || len(delta.Cliques[0].Added)+len(delta.Cliques[0].Removed) == 0 {
			t.Fatalf("batch %d: err %v, rebuilt or no clique delta", i, err)
		}
	})
	t.Logf("%.0f allocs per incremental batch of %d edges", allocs, len(fwd))
	if allocs > 1200 {
		t.Fatalf("an incremental batch allocated %.0f objects, want ≤ 1200", allocs)
	}
}
