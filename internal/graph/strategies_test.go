package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// The kernel's and the incremental engine's thresholds are speed choices
// (DESIGN.md §8): the listing is byte-identical whichever strategy they
// pick. These tests force each alternative path — row bitmaps off and
// everywhere, merge-only intersections, pathological root chunking, and
// the incremental engine's patch-only and rebuild-only paths — and check
// the output against the default thresholds.

// kernelThresholds is one setting of the kernel's four thresholds.
type kernelThresholds struct{ rowMaxN, rowMinOut, bitsetCut, rootChunk int }

// setKernelThresholds installs th for kernels built from now on and
// returns the function that restores the previous values.
func setKernelThresholds(th kernelThresholds) (restore func()) {
	old := kernelThresholds{kernelRowMaxN, kernelRowMinOut, kernelBitsetCut, kernelRootChunk}
	kernelRowMaxN, kernelRowMinOut, kernelBitsetCut, kernelRootChunk = th.rowMaxN, th.rowMinOut, th.bitsetCut, th.rootChunk
	return func() {
		kernelRowMaxN, kernelRowMinOut, kernelBitsetCut, kernelRootChunk = old.rowMaxN, old.rowMinOut, old.bitsetCut, old.rootChunk
	}
}

// forcedStrategies derive from the defaults d one setting per strategy.
func forcedStrategies(d kernelThresholds) map[string]kernelThresholds {
	with := func(f func(*kernelThresholds)) kernelThresholds {
		th := d
		f(&th)
		return th
	}
	return map[string]kernelThresholds{
		"rows-off":     with(func(th *kernelThresholds) { th.rowMaxN, th.rowMinOut = 1, 1<<30 }),
		"rows-always":  with(func(th *kernelThresholds) { th.rowMinOut, th.bitsetCut = 1, 1 }),
		"merge-only":   with(func(th *kernelThresholds) { th.bitsetCut = 1 << 30 }),
		"chunk-1":      with(func(th *kernelThresholds) { th.rootChunk = 1 }),
		"chunk-huge":   with(func(th *kernelThresholds) { th.rootChunk = 1 << 20 }),
		"kitchen-sink": with(func(th *kernelThresholds) { th.rowMinOut, th.bitsetCut, th.rootChunk = 1, 1, 1 }),
	}
}

// TestKernelForcedStrategies: the same graph listed under every forced
// strategy must produce exactly the default thresholds' output,
// sequentially and in parallel. Fresh graphs are built per strategy
// because a kernel decides on its row bitmaps at construction.
func TestKernelForcedStrategies(t *testing.T) {
	families := []struct {
		name string
		mk   func(r *rand.Rand) *Graph
	}{
		{"sparse", func(r *rand.Rand) *Graph { return ErdosRenyi(90, 0.06, r) }},
		{"dense", func(r *rand.Rand) *Graph { return ErdosRenyi(60, 0.45, r) }},
		{"planted", func(r *rand.Rand) *Graph {
			g, _ := PlantedCliques(80, 5, 6, 0.05, r)
			return g
		}},
	}
	defaults := kernelThresholds{kernelRowMaxN, kernelRowMinOut, kernelBitsetCut, kernelRootChunk}
	for _, fam := range families {
		want := map[int][]Clique{}
		g := fam.mk(rand.New(rand.NewSource(42)))
		for p := 2; p <= 5; p++ {
			want[p] = g.ListCliquesWorkers(p, 4)
		}
		for name, th := range forcedStrategies(defaults) {
			func() {
				defer setKernelThresholds(th)()
				fresh := fam.mk(rand.New(rand.NewSource(42)))
				if rows := fresh.kernel().rows != nil; th.rowMinOut == 1 && !rows || th.rowMaxN == 1 && rows {
					t.Fatalf("%s/%s: row bitmaps built=%v, not what the strategy forces", fam.name, name, rows)
				}
				for p := 2; p <= 5; p++ {
					for _, workers := range []int{1, 4} {
						got := fresh.ListCliquesWorkers(p, workers)
						if len(got) == 0 && len(want[p]) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want[p]) {
							t.Fatalf("%s/%s p=%d workers=%d: listing differs from the default thresholds",
								fam.name, name, p, workers)
						}
					}
					if got := fresh.CountCliquesWorkers(p, 2); got != int64(len(want[p])) {
						t.Fatalf("%s/%s p=%d: count %d, want %d", fam.name, name, p, got, len(want[p]))
					}
				}
			}()
		}
	}
}

// TestDynGraphMetamorphicRebuildPaths: the incremental engine must track
// exactly the from-scratch kernel under the same churn whether its
// DynConfig sends every batch down the patch path or the rebuild path,
// and Delta.Rebuilt must say which path ran.
func TestDynGraphMetamorphicRebuildPaths(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     DynConfig
		rebuild bool
	}{
		{"rebuild-never", DynConfig{RebuildFraction: -1}, false},
		{"rebuild-always", DynConfig{RebuildFraction: 1e-9, RebuildMinBatch: -1}, true},
	} {
		rng := rand.New(rand.NewSource(7))
		d := NewDynGraph(ErdosRenyi(28, 0.3, rng), tc.cfg, 3, 4)
		for batch := 0; batch < 12; batch++ {
			var muts []Mutation
			for j := 0; j < 8; j++ {
				u, v := V(rng.Intn(28)), V(rng.Intn(28))
				if u == v {
					continue
				}
				op := MutAdd
				if rng.Intn(2) == 0 {
					op = MutDel
				}
				muts = append(muts, Mutation{op, Edge{u, v}.Canon()})
			}
			delta, err := d.ApplyBatch(muts)
			if err != nil {
				t.Fatalf("%s batch %d: %v", tc.name, batch, err)
			}
			if want := tc.rebuild && delta.Effective() > 0; delta.Rebuilt != want {
				t.Fatalf("%s batch %d: Rebuilt=%v, want %v (%d effective changes)",
					tc.name, batch, delta.Rebuilt, want, delta.Effective())
			}
			snap := d.Snapshot()
			for _, p := range []int{3, 4} {
				got, _ := d.Cliques(p)
				want := snap.ListCliquesWorkers(p, 2)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s batch %d p=%d: tracked cliques diverged from rebuild", tc.name, batch, p)
				}
			}
		}
	}
}
