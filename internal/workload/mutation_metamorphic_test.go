package workload

// The metamorphic suite for the dynamic-graph subsystem: for every
// workload family × trace schedule, the incrementally maintained listing
// must stay byte-for-byte equal to a from-scratch listing of an equal
// static graph after every batch, at every host-parallelism level; adding
// then removing an edge is the identity; and a batch's effect is
// independent of the order its mutations are spelled in. The suite runs
// under -race in CI (the workload race job), so the DynGraph locking is
// exercised alongside the properties.

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kplist/internal/graph"
)

// metamorphicN keeps every family small enough that the suite stays
// seconds under -race while still producing nontrivial clique churn.
const metamorphicN = 48

// cliqueBytes flattens a listing into its canonical key bytes, so
// "byte-for-byte equal" is checked literally.
func cliqueBytes(cs []graph.Clique) []byte {
	var out []byte
	for _, c := range cs {
		out = c.AppendKey(out)
	}
	return out
}

// rebuiltListing lists p-cliques of an equal static graph from scratch at
// the given worker count.
func rebuiltListing(t *testing.T, d *graph.DynGraph, p, workers int) []graph.Clique {
	t.Helper()
	return d.Snapshot().ListCliquesWorkers(p, workers)
}

// TestMutationMetamorphicApplyEqualsRebuild is the core property: after
// every batch of every schedule on every family, the maintained listing
// equals the rebuild-from-scratch listing byte-for-byte, for workers 1
// and 8.
func TestMutationMetamorphicApplyEqualsRebuild(t *testing.T) {
	const p = 4
	for _, family := range Families() {
		for _, sched := range TraceSchedules() {
			t.Run(family+"/"+sched, func(t *testing.T) {
				inst, err := Generate(DefaultSpec(family, metamorphicN, 7))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := GenerateTrace(inst.G, TraceSpec{Schedule: sched, Batches: 3, BatchSize: 12, Seed: 13})
				if err != nil {
					t.Fatal(err)
				}
				d := graph.NewDynGraph(inst.G, graph.DynConfig{}, 3, p)
				for i, batch := range tr.Batches {
					if _, err := d.ApplyBatch(batch); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					for _, pp := range []int{3, p} {
						got, ok := d.Cliques(pp)
						if !ok {
							t.Fatalf("p=%d untracked", pp)
						}
						for _, workers := range []int{1, 8} {
							want := rebuiltListing(t, d, pp, workers)
							if !bytes.Equal(cliqueBytes(got), cliqueBytes(want)) {
								t.Fatalf("batch %d p=%d workers=%d: maintained listing (%d cliques) != rebuild (%d)",
									i, pp, workers, len(got), len(want))
							}
						}
					}
				}
				// Structural sanity on the instance's advertised guarantees:
				// triangle-free families can only gain triangles through
				// inserted edges, which the maintained census must reflect
				// exactly — already covered by the equality above; here we
				// assert the engine exercised the intended path.
				st := d.Stats()
				if sched == ScheduleRebuildTrigger && st.Rebuilds == 0 && st.Batches > 0 {
					t.Fatalf("%s ran %d batches with no rebuild", sched, st.Batches)
				}
				if sched != ScheduleRebuildTrigger && st.Rebuilds != 0 {
					t.Fatalf("%s unexpectedly hit the rebuild fallback: %+v", sched, st)
				}
			})
		}
	}
}

// TestMutationMetamorphicInsertDeleteIdentity checks that insert∘delete of
// the same edge is the identity on the graph, the maintained listings and
// the counts — both as two batches and as one self-cancelling batch.
func TestMutationMetamorphicInsertDeleteIdentity(t *testing.T) {
	for _, family := range Families() {
		t.Run(family, func(t *testing.T) {
			inst, err := Generate(DefaultSpec(family, metamorphicN, 3))
			if err != nil {
				t.Fatal(err)
			}
			d := graph.NewDynGraph(inst.G, graph.DynConfig{}, 3, 4)
			before3, _ := d.Cliques(3)
			before4, _ := d.Cliques(4)
			mBefore := d.M()

			rng := rand.New(rand.NewSource(17))
			st := newTraceState(inst.G, rng)
			for trial := 0; trial < 8; trial++ {
				e, ok := st.pickAbsent()
				if !ok {
					t.Skip("graph complete; no absent edge to probe")
				}
				// Two batches: add, then delete.
				if _, err := d.ApplyBatch([]graph.Mutation{{Op: graph.MutAdd, Edge: e}}); err != nil {
					t.Fatal(err)
				}
				if _, err := d.ApplyBatch([]graph.Mutation{{Op: graph.MutDel, Edge: e}}); err != nil {
					t.Fatal(err)
				}
				// One self-cancelling batch: must be a recorded no-op.
				delta, err := d.ApplyBatch([]graph.Mutation{
					{Op: graph.MutAdd, Edge: e},
					{Op: graph.MutDel, Edge: e},
				})
				if err != nil {
					t.Fatal(err)
				}
				if delta.Effective() != 0 {
					t.Fatalf("self-cancelling batch reported %d effective changes", delta.Effective())
				}
			}
			after3, _ := d.Cliques(3)
			after4, _ := d.Cliques(4)
			if d.M() != mBefore {
				t.Fatalf("edge count drifted: %d -> %d", mBefore, d.M())
			}
			if !bytes.Equal(cliqueBytes(before3), cliqueBytes(after3)) ||
				!bytes.Equal(cliqueBytes(before4), cliqueBytes(after4)) {
				t.Fatal("insert∘delete is not the identity on the maintained listings")
			}
		})
	}
}

// TestMutationMetamorphicOrderIndependence checks that a batch of
// mutations over distinct edges produces the same graph, deltas and
// maintained listings however it is permuted — and however it is split
// into sub-batches.
func TestMutationMetamorphicOrderIndependence(t *testing.T) {
	for _, family := range Families() {
		t.Run(family, func(t *testing.T) {
			inst, err := Generate(DefaultSpec(family, metamorphicN, 5))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := GenerateTrace(inst.G, TraceSpec{Schedule: ScheduleChurn, Batches: 1, BatchSize: 16, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			batch := tr.Batches[0]
			if len(batch) < 2 {
				t.Skip("not enough material for a permutation")
			}

			apply := func(batches [][]graph.Mutation) *graph.DynGraph {
				d := graph.NewDynGraph(inst.G, graph.DynConfig{}, 3, 4)
				for _, b := range batches {
					if _, err := d.ApplyBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				return d
			}
			ref := apply([][]graph.Mutation{batch})
			ref3, _ := ref.Cliques(3)
			ref4, _ := ref.Cliques(4)

			rng := rand.New(rand.NewSource(29))
			for trial := 0; trial < 4; trial++ {
				perm := make([]graph.Mutation, len(batch))
				for i, j := range rng.Perm(len(batch)) {
					perm[i] = batch[j]
				}
				// As one permuted batch, and split at a random point into two.
				cut := 1 + rng.Intn(len(perm)-1)
				for _, batches := range [][][]graph.Mutation{
					{perm},
					{perm[:cut], perm[cut:]},
				} {
					d := apply(batches)
					got3, _ := d.Cliques(3)
					got4, _ := d.Cliques(4)
					if !bytes.Equal(cliqueBytes(ref3), cliqueBytes(got3)) ||
						!bytes.Equal(cliqueBytes(ref4), cliqueBytes(got4)) {
						t.Fatalf("trial %d: permuted application diverged", trial)
					}
					if !reflect.DeepEqual(ref.Snapshot().Edges(), d.Snapshot().Edges()) {
						t.Fatalf("trial %d: edge sets diverged", trial)
					}
				}
			}
		})
	}
}

// TestMutationMetamorphicDeltaConsistency cross-checks the reported
// deltas themselves: applying Added/Removed to the previous listing must
// reproduce the next listing exactly.
func TestMutationMetamorphicDeltaConsistency(t *testing.T) {
	const p = 3
	inst := MustGenerate(DefaultSpec(FamilyPlantedClique, metamorphicN, 19))
	tr, err := GenerateTrace(inst.G, TraceSpec{Schedule: ScheduleChurn, Batches: 6, BatchSize: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDynGraph(inst.G, graph.DynConfig{}, p)
	model, _ := d.Cliques(p)
	for i, batch := range tr.Batches {
		delta, err := d.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Rebuilt {
			t.Fatalf("batch %d unexpectedly rebuilt", i)
		}
		cd := delta.Cliques[0]
		for _, c := range cd.Removed {
			at, ok := slices.BinarySearchFunc(model, c, slices.Compare)
			if !ok {
				t.Fatalf("batch %d: removed clique %v was not present", i, c)
			}
			model = slices.Delete(model, at, at+1)
		}
		for _, c := range cd.Added {
			at, ok := slices.BinarySearchFunc(model, c, slices.Compare)
			if ok {
				t.Fatalf("batch %d: added clique %v was already present", i, c)
			}
			model = slices.Insert(model, at, c)
		}
		cur, _ := d.Cliques(p)
		if !slices.EqualFunc(model, cur, slices.Equal) {
			t.Fatalf("batch %d: replaying the delta does not reproduce the listing", i)
		}
	}
}
