package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomBag fills a bag with count sorted p-tuples over [0, maxV], about a
// third of them repeats of earlier ones, and returns the tuples too.
func randomBag(rng *rand.Rand, p, count int, maxV V) (*CliqueBag, []Clique) {
	bag := NewCliqueBag(p)
	var added []Clique
	for i := 0; i < count; i++ {
		var c Clique
		if len(added) > 0 && rng.Intn(3) == 0 {
			c = added[rng.Intn(len(added))]
		} else {
			c = make(Clique, p)
			for j := range c {
				c[j] = V(rng.Int63n(int64(maxV) + 1))
			}
			slices.Sort(c)
		}
		bag.Add(c)
		added = append(added, c)
	}
	return bag, added
}

// TestCliqueBagMatchesCliqueSet: for p from 2 to 8 and vertex ranges on
// both sides of the radix path's sortPackedMaxID limit, Cliques equals
// the set of the same tuples as a comparison sort and compaction give
// it, and every clique is capped at p.
func TestCliqueBagMatchesCliqueSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for p := 2; p <= 8; p++ {
		for _, maxV := range []V{0, 1, 7, 255, 1<<16 - 1, 1 << 16, sortPackedMaxID - 1, sortPackedMaxID, 1 << 20, 1<<31 - 1} {
			t.Run(fmt.Sprintf("p=%d/maxV=%d", p, maxV), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					bag, added := randomBag(rng, p, 1+rng.Intn(300), maxV)
					got := bag.Cliques()
					want := slices.Clone(added)
					slices.SortFunc(want, cmpClique)
					want = slices.CompactFunc(want, slices.Equal)
					if !sameCliques(got, want) {
						t.Fatalf("trial %d: bag gives %d cliques, set %d", trial, len(got), len(want))
					}
					for _, c := range got {
						if len(c) != p || cap(c) != p {
							t.Fatalf("clique %v has len %d cap %d, want %d", c, len(c), cap(c), p)
						}
					}
					// Cliques leaves the bag as it was: a second call agrees.
					if again := bag.Cliques(); !slices.EqualFunc(again, got, slices.Equal) {
						t.Fatalf("trial %d: second Cliques call differs", trial)
					}
				}
			})
		}
	}
}

// TestCliqueBagNegativeVertices: a negative vertex takes the comparison
// sort and keeps cmpClique's signed order.
func TestCliqueBagNegativeVertices(t *testing.T) {
	bag := NewCliqueBag(2)
	for _, c := range []Clique{{1, 2}, {-3, 4}, {1, 2}, {-3, -1}} {
		bag.Add(c)
	}
	want := []Clique{{-3, -1}, {-3, 4}, {1, 2}}
	if got := bag.Cliques(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestCliqueBagEmpty: an empty bag gives a non-nil, zero-length slice,
// which JSON renders as [] rather than null.
func TestCliqueBagEmpty(t *testing.T) {
	for _, p := range []int{0, 3} {
		got := NewCliqueBag(p).Cliques()
		if got == nil || len(got) != 0 {
			t.Fatalf("p=%d: empty bag gave %#v", p, got)
		}
		if b, _ := json.Marshal(got); string(b) != "[]" {
			t.Fatalf("p=%d: empty bag encodes as %s", p, b)
		}
	}
}

// TestCliqueBagAppendIsolated: appending to one returned clique cannot
// clobber its neighbour in the shared backing array.
func TestCliqueBagAppendIsolated(t *testing.T) {
	bag := NewCliqueBag(2)
	bag.Add(Clique{0, 1})
	bag.Add(Clique{2, 3})
	got := bag.Cliques()
	_ = append(got[0], 9)
	if !slices.Equal(got[1], Clique{2, 3}) {
		t.Fatalf("append to the first clique changed the second: %v", got[1])
	}
}

// TestCliqueBagAddBag: merging appends the other bag's tuples in order and
// leaves it unchanged; a bag of another clique size is refused.
func TestCliqueBagAddBag(t *testing.T) {
	a, b := NewCliqueBag(3), NewCliqueBag(3)
	a.Add(Clique{4, 5, 6})
	b.Add(Clique{1, 2, 3})
	b.Add(Clique{4, 5, 6})
	a.AddBag(b)
	want := []Clique{{4, 5, 6}, {1, 2, 3}, {4, 5, 6}}
	if got := slices.Collect(a.All()); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("merged rows %v, want %v", got, want)
	}
	if got := len(slices.Collect(b.All())); got != 2 {
		t.Fatalf("merged-from bag has %d rows, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging a bag of 4-cliques into a bag of 3-cliques did not panic")
		}
	}()
	a.AddBag(NewCliqueBag(4))
}

// TestCliqueBagAddBagShares: merged bags share rows, yet each keeps
// growing on its own without changing what the other holds, across slab
// boundaries on both sides.
func TestCliqueBagAddBagShares(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, aRows := randomBag(rng, 3, 40, 99)
	b, bRows := randomBag(rng, 3, 25, 99)
	a.AddBag(b)
	want := append(slices.Clone(aRows), bRows...)
	for i := 0; i < 100; i++ {
		ca, cb := Clique{V(i), V(i + 1), V(i + 2)}, Clique{V(i), V(i + 3), V(i + 5)}
		a.Add(ca)
		b.Add(cb)
		want = append(want, ca)
		bRows = append(bRows, cb)
	}
	if got := slices.Collect(a.All()); !sameCliques(got, want) {
		t.Fatalf("merged bag changed when the merged-from bag grew: %d rows, want %d", len(got), len(want))
	}
	if got := slices.Collect(b.All()); !sameCliques(got, bRows) {
		t.Fatalf("merged-from bag changed when the merged bag grew: %d rows, want %d", len(got), len(bRows))
	}
}

// BenchmarkCliqueBag times the engines' accumulate-then-sort pattern: 64
// per-cluster bags of K4s with repeats, merged into one and sorted once.
// The vertex range picks the radix ("packed") or the comparison ("wide")
// sort.
func BenchmarkCliqueBag(b *testing.B) {
	for _, tc := range []struct {
		name string
		maxV V
	}{{"packed", 1<<16 - 1}, {"wide", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			parts := make([]*CliqueBag, 64)
			for i := range parts {
				parts[i], _ = randomBag(rng, 4, 1024, tc.maxV)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all := NewCliqueBag(4)
				for _, part := range parts {
					all.AddBag(part)
				}
				if len(all.Cliques()) == 0 {
					b.Fatal("no cliques")
				}
			}
		})
	}
}
