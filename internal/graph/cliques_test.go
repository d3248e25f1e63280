package graph

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// localCliques lists ll's p-cliques through AddCliques, sorted.
func localCliques(ll *LocalLister, p int) []Clique {
	bag := NewCliqueBag(p)
	ll.AddCliques(bag)
	return bag.Cliques()
}

// sameCliques reports that two listings hold the same cliques in the same
// order (nil and empty alike).
func sameCliques(a, b []Clique) bool { return slices.EqualFunc(a, b, slices.Equal) }

// binomial computes C(n, k) exactly for small inputs.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

func TestCountCliquesComplete(t *testing.T) {
	for _, n := range []int{4, 6, 9} {
		g := Complete(n)
		for p := 2; p <= 5; p++ {
			got := g.CountCliques(p)
			want := binomial(n, p)
			if got != want {
				t.Errorf("K_%d: CountCliques(%d) = %d, want %d", n, p, got, want)
			}
		}
	}
}

func TestCountCliquesSparse(t *testing.T) {
	// A triangle plus a pendant: one K3, no K4.
	g := MustNew(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if got := g.CountCliques(3); got != 1 {
		t.Errorf("K3 count = %d, want 1", got)
	}
	if got := g.CountCliques(4); got != 0 {
		t.Errorf("K4 count = %d, want 0", got)
	}
	if got := g.CountCliques(2); got != 4 {
		t.Errorf("K2 count = %d, want 4 (edges)", got)
	}
	if got := g.CountCliques(1); got != 4 {
		t.Errorf("K1 count = %d, want 4 (vertices)", got)
	}
}

func TestListCliquesSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ErdosRenyi(60, 0.25, rng)
	cs := g.ListCliques(4)
	for k, c := range cs {
		for i := 1; i < len(c); i++ {
			if c[i-1] >= c[i] {
				t.Fatalf("clique %v not strictly sorted", c)
			}
		}
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(c[i], c[j]) {
					t.Fatalf("clique %v has non-edge {%d,%d}", c, c[i], c[j])
				}
			}
		}
		if k > 0 && cmpClique(cs[k-1], c) >= 0 {
			t.Fatalf("clique %v after %v: not strictly increasing", c, cs[k-1])
		}
	}
}

// bruteForceCliques is an O(n^p) reference used only at tiny sizes; it
// picks vertices in increasing order, so its output is lexicographic.
func bruteForceCliques(g *Graph, p int) []Clique {
	var s []Clique
	n := g.N()
	var pick func(start int, cur []V)
	pick = func(start int, cur []V) {
		if len(cur) == p {
			s = append(s, slices.Clone(Clique(cur)))
			return
		}
		for v := start; v < n; v++ {
			ok := true
			for _, u := range cur {
				if !g.HasEdge(u, V(v)) {
					ok = false
					break
				}
			}
			if ok {
				pick(v+1, append(cur, V(v)))
			}
		}
	}
	pick(0, make([]V, 0, p))
	return s
}

func TestListCliquesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		g := ErdosRenyi(n, 0.4+0.3*rng.Float64(), rng)
		for p := 3; p <= 5; p++ {
			want := bruteForceCliques(g, p)
			if got := g.ListCliques(p); !sameCliques(got, want) {
				t.Fatalf("trial %d n=%d p=%d: got %v, want %v", trial, n, p, got, want)
			}
		}
	}
}

func TestPlantedCliquesAreFound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, planted := PlantedCliques(80, 5, 3, 0.05, rng)
	found := g.ListCliques(5)
	for _, c := range planted {
		if _, ok := slices.BinarySearchFunc(found, Clique(c), cmpClique); !ok {
			t.Errorf("planted clique %v not listed", c)
		}
	}
}

func TestLocalLister(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}}
	ll := NewLocalLister(edges)
	if got := localCliques(ll, 4); !sameCliques(got, []Clique{{0, 1, 2, 3}}) {
		t.Errorf("local K4 listing = %v", got)
	}
	wantTri := []Clique{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	if got := localCliques(ll, 3); !sameCliques(got, wantTri) {
		t.Errorf("local K3 listing = %v, want %v", got, wantTri)
	}
	// p = 2 lists exactly the known edges, canonical and sorted.
	wantEdges := []Clique{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if got := localCliques(ll, 2); !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("local edge listing = %v, want %v", got, wantEdges)
	}
}

func TestLocalListerMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := ErdosRenyi(40, 0.3, rng)
		ll := NewLocalLister(g.Edges())
		for p := 3; p <= 5; p++ {
			if !sameCliques(localCliques(ll, p), g.ListCliques(p)) {
				t.Fatalf("trial %d p=%d: local lister diverges from graph lister", trial, p)
			}
		}
	}
}

func TestVisitCliquesEdgeCases(t *testing.T) {
	g := Complete(3)
	if g.CountCliques(0) != 0 {
		t.Error("p=0 should yield nothing")
	}
	if g.CountCliques(1) != 3 {
		t.Error("p=1 should yield vertices")
	}
	if g.CountCliques(7) != 0 {
		t.Error("p>n should yield nothing")
	}
	empty := MustNew(0, nil)
	if empty.CountCliques(3) != 0 {
		t.Error("empty graph should yield nothing")
	}
}

// TestAppendKeyMatchesKey: AppendKey writes the documented key, four
// little-endian bytes per vertex, after whatever dst already holds.
func TestAppendKeyMatchesKey(t *testing.T) {
	cs := []Clique{{}, {0}, {5, 9}, {1, 2, 3, 4}, {7, 123456, 1 << 20, 1<<30 + 17}}
	for _, c := range cs {
		var want []byte
		for _, v := range c {
			want = binary.LittleEndian.AppendUint32(want, uint32(v))
		}
		var buf [64]byte
		if got := c.AppendKey(buf[:0]); string(got) != string(want) {
			t.Errorf("AppendKey(%v) = %x, want %x", c, got, want)
		}
		// Appending must extend, not clobber.
		ext := c.AppendKey([]byte("pre"))
		if string(ext[:3]) != "pre" || string(ext[3:]) != string(want) {
			t.Errorf("AppendKey(%v) with prefix corrupted the buffer", c)
		}
	}
}
