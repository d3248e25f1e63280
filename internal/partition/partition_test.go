package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kplist/internal/graph"
)

func TestRandomPartitionCoversAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Random(100, 7, rng)
	if p.T() != 7 {
		t.Fatalf("T = %d", p.T())
	}
	total := 0
	for i, part := range p.Parts {
		total += len(part)
		for _, v := range part {
			if p.PartOf[v] != int32(i) {
				t.Fatalf("PartOf[%d] = %d, want %d", v, p.PartOf[v], i)
			}
		}
	}
	if total != 100 {
		t.Errorf("parts cover %d vertices, want 100", total)
	}
}

func TestRandomPartitionRoughBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, tparts := 10000, 10
	p := Random(n, tparts, rng)
	for i, part := range p.Parts {
		expected := float64(n) / float64(tparts)
		if math.Abs(float64(len(part))-expected) > 5*math.Sqrt(expected) {
			t.Errorf("part %d has %d vertices, expected about %v", i, len(part), expected)
		}
	}
}

func TestPairIndexBijective(t *testing.T) {
	for _, tparts := range []int{1, 2, 5, 9} {
		seen := make(map[int]bool)
		for a := 0; a < tparts; a++ {
			for b := a; b < tparts; b++ {
				idx := PairIndex(a, b, tparts)
				if idx < 0 || idx >= NumPairs(tparts) {
					t.Fatalf("PairIndex(%d,%d,%d) = %d out of range", a, b, tparts, idx)
				}
				if seen[idx] {
					t.Fatalf("PairIndex collision at (%d,%d,%d)", a, b, tparts)
				}
				seen[idx] = true
				if PairIndex(b, a, tparts) != idx {
					t.Fatalf("PairIndex not symmetric at (%d,%d)", a, b)
				}
			}
		}
		if len(seen) != NumPairs(tparts) {
			t.Fatalf("t=%d covered %d pairs, want %d", tparts, len(seen), NumPairs(tparts))
		}
	}
}

func TestPairCountsConserveEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyi(200, 0.1, rng)
	el := graph.NewEdgeList(g.Edges())
	p := Random(200, 5, rng)
	counts := p.PairCounts(el)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != int64(len(el)) {
		t.Errorf("pair counts sum to %d, want %d", sum, len(el))
	}
}

// TestLemma27Balance verifies the lemma's conclusion empirically on a graph
// satisfying its preconditions: max pair load ≤ 6m/t².
func TestLemma27Balance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, density, tparts := 1500, 0.3, 3
	g := graph.ErdosRenyi(n, density, rng)
	el := graph.NewEdgeList(g.Edges())
	if !Lemma27Preconditions(n, g.M(), g.MaxDegree(), tparts) {
		t.Fatalf("test graph violates Lemma 2.7 preconditions (m=%d, maxDeg=%d)", g.M(), g.MaxDegree())
	}
	for trial := 0; trial < 5; trial++ {
		p := Random(n, tparts, rng)
		got := p.MaxPairCount(el)
		bound := Lemma27Bound(g.M(), tparts)
		if got > bound {
			t.Errorf("trial %d: max pair count %d exceeds Lemma 2.7 bound %d", trial, got, bound)
		}
	}
}

func TestLemma27Preconditions(t *testing.T) {
	// Tiny graphs must fail the preconditions.
	if Lemma27Preconditions(10, 20, 5, 2) {
		t.Error("tiny graph should fail preconditions")
	}
	if Lemma27Preconditions(1, 0, 0, 1) {
		t.Error("n<2 should fail")
	}
}

func TestTupleForID(t *testing.T) {
	// id = 2 + 3·1 + 9·0 = 5 in base 3, p=3 → digits (2,1,0).
	tup := TupleForID(5, 3, 3)
	if tup[0] != 2 || tup[1] != 1 || tup[2] != 0 {
		t.Errorf("TupleForID(5,3,3) = %v, want [2 1 0]", tup)
	}
	if TupleCount(3, 3) != 27 {
		t.Error("TupleCount wrong")
	}
}

func TestTuplesCoverAllCombinations(t *testing.T) {
	tparts, p := 3, 4
	seen := make(map[string]bool)
	for id := 0; id < TupleCount(tparts, p); id++ {
		tup := TupleForID(id, tparts, p)
		key := ""
		for _, d := range tup {
			key += string(rune('0' + d))
		}
		if seen[key] {
			t.Fatalf("duplicate tuple %v", tup)
		}
		seen[key] = true
	}
	if len(seen) != 81 {
		t.Fatalf("covered %d tuples, want 81", len(seen))
	}
}

func TestPartsForListing(t *testing.T) {
	cases := []struct{ k, p, want int }{
		{16, 4, 2}, {81, 4, 3}, {80, 4, 2}, {1000, 3, 10}, {1, 4, 1}, {0, 4, 1}, {7, 3, 1},
	}
	for _, c := range cases {
		if got := PartsForListing(c.k, c.p); got != c.want {
			t.Errorf("PartsForListing(%d,%d) = %d, want %d", c.k, c.p, got, c.want)
		}
	}
	// Always: TupleCount(t,p) ≤ k for k ≥ 1.
	for k := 1; k < 200; k += 7 {
		for p := 3; p <= 7; p++ {
			tt := PartsForListing(k, p)
			if TupleCount(tt, p) > k {
				t.Errorf("PartsForListing(%d,%d)=%d overflows", k, p, tt)
			}
		}
	}
}

func TestAssignmentSubscribersComplete(t *testing.T) {
	k, tparts, p := 81, 3, 4
	a, err := NewAssignment(k, tparts, p)
	if err != nil {
		t.Fatalf("NewAssignment: %v", err)
	}
	// Every pair has at least one subscriber, and each subscriber's tuple
	// really contains the pair.
	for pa := int32(0); pa < int32(tparts); pa++ {
		for pb := pa; pb < int32(tparts); pb++ {
			subs := a.Subscribers(pa, pb)
			if len(subs) == 0 {
				t.Fatalf("pair (%d,%d) has no subscribers", pa, pb)
			}
			for _, id := range subs {
				tup := a.Tuples[id]
				hasA, hasB := false, false
				for _, d := range tup {
					if d == pa {
						hasA = true
					}
					if d == pb {
						hasB = true
					}
				}
				if !hasA || !hasB {
					t.Fatalf("node %d subscribed to (%d,%d) but tuple %v lacks it", id, pa, pb, tup)
				}
			}
		}
	}
}

// TestAssignmentCoversEveryCliquePattern is the key correctness property of
// §2.4.3, and the one the simulated listing step rests on: for ANY multiset
// of p parts (the parts of a Kp's vertices), some node subscribes to every
// pair from the multiset, hence learns every edge of that clique. It is
// checked on the subscription table itself, at the shapes the engines
// build (k = n listing nodes, t = PartsForListing(n, p)) and at one shape
// with several repeated parts per multiset.
func TestAssignmentCoversEveryCliquePattern(t *testing.T) {
	type shape struct{ k, tparts, p int }
	shapes := []shape{{81, 3, 4}}
	for _, n := range []int{50, 200, 256, 384, 576} {
		for p := 3; p <= 6; p++ {
			shapes = append(shapes, shape{n, PartsForListing(n, p), p})
		}
	}
	for _, sh := range shapes {
		a, err := NewAssignment(sh.k, sh.tparts, sh.p)
		if err != nil {
			t.Fatal(err)
		}
		hits := make([]int, sh.k) // per node, the multiset's pairs it subscribes to
		var pairs []int
		checked := 0
		var build func(cur []int32, next int32)
		build = func(cur []int32, next int32) {
			if len(cur) < sh.p {
				for d := next; d < int32(sh.tparts); d++ {
					build(append(cur, d), d)
				}
				return
			}
			checked++
			pairs = pairs[:0]
			for i := range cur {
				for j := i + 1; j < len(cur); j++ {
					if pi := PairIndex(int(cur[i]), int(cur[j]), sh.tparts); !slices.Contains(pairs, pi) {
						pairs = append(pairs, pi)
					}
				}
			}
			clear(hits)
			for _, pi := range pairs {
				for _, id := range a.SubscribersOf[pi] {
					if hits[id]++; hits[id] == len(pairs) {
						return
					}
				}
			}
			t.Fatalf("k=%d t=%d p=%d: no node subscribes to every pair of part multiset %v",
				sh.k, sh.tparts, sh.p, cur)
		}
		build(nil, 0)
		want := 1 // C(t+p−1, p)
		for i := 1; i <= sh.p; i++ {
			want = want * (sh.tparts - 1 + i) / i
		}
		if checked != want {
			t.Fatalf("k=%d t=%d p=%d: checked %d multisets, want C(t+p-1,p) = %d",
				sh.k, sh.tparts, sh.p, checked, want)
		}
	}
}

// TestMaxFanoutBound verifies footnote 7: each edge between two distinct
// parts is sent to at most p²·t^{p-2} nodes. Diagonal pairs (same-part
// edges, which the paper's footnote does not separate out) have fanout at
// most p·t^{p-1} — the tuples containing the part at all.
func TestMaxFanoutBound(t *testing.T) {
	for _, c := range []struct{ tparts, p int }{{2, 4}, {3, 4}, {2, 5}, {3, 5}, {4, 3}} {
		a, err := NewAssignment(TupleCount(c.tparts, c.p), c.tparts, c.p)
		if err != nil {
			t.Fatal(err)
		}
		offDiagBound := c.p * c.p * TupleCount(c.tparts, c.p-2)
		diagBound := c.p * TupleCount(c.tparts, c.p-1)
		for pa := int32(0); pa < int32(c.tparts); pa++ {
			for pb := pa; pb < int32(c.tparts); pb++ {
				got := len(a.Subscribers(pa, pb))
				bound := offDiagBound
				if pa == pb {
					bound = diagBound
				}
				if got > bound {
					t.Errorf("t=%d p=%d pair(%d,%d): fanout %d exceeds bound %d",
						c.tparts, c.p, pa, pb, got, bound)
				}
			}
		}
	}
}

func TestNewAssignmentRejectsOverflow(t *testing.T) {
	if _, err := NewAssignment(10, 3, 3); err == nil {
		t.Error("27 tuples on 10 nodes should error")
	}
}

// Property: PairIndex round-trips for arbitrary part pairs.
func TestQuickPairIndex(t *testing.T) {
	f := func(aRaw, bRaw uint8, tRaw uint8) bool {
		tparts := 1 + int(tRaw%20)
		a := int(aRaw) % tparts
		b := int(bRaw) % tparts
		idx := PairIndex(a, b, tparts)
		return idx >= 0 && idx < NumPairs(tparts) && idx == PairIndex(b, a, tparts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
