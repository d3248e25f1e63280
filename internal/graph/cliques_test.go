package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

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
	seen := make(map[string]struct{})
	for _, c := range cs {
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
		if _, dup := seen[c.Key()]; dup {
			t.Fatalf("duplicate clique %v", c)
		}
		seen[c.Key()] = struct{}{}
	}
}

// bruteForceCliques is an O(n^p) reference used only at tiny sizes.
func bruteForceCliques(g *Graph, p int) CliqueSet {
	s := make(CliqueSet)
	n := g.N()
	var pick func(start int, cur []V)
	pick = func(start int, cur []V) {
		if len(cur) == p {
			s.Add(cur)
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
			got := NewCliqueSet(g.ListCliques(p))
			if !got.Equal(want) {
				t.Fatalf("trial %d n=%d p=%d: got %d cliques, want %d; missing=%v extra=%v",
					trial, n, p, got.Len(), want.Len(), want.Minus(got), got.Minus(want))
			}
		}
	}
}

func TestPlantedCliquesAreFound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, planted := PlantedCliques(80, 5, 3, 0.05, rng)
	found := NewCliqueSet(g.ListCliques(5))
	for _, c := range planted {
		if !found.Has(Clique(c)) {
			t.Errorf("planted clique %v not listed", c)
		}
	}
}

func TestCliqueKeyRoundTrip(t *testing.T) {
	c := Clique{0, 7, 123456, 1 << 20}
	got := CliqueFromKey(c.Key())
	if len(got) != len(c) {
		t.Fatalf("round trip length %d", len(got))
	}
	for i := range c {
		if got[i] != c[i] {
			t.Errorf("round trip [%d] = %d, want %d", i, got[i], c[i])
		}
	}
}

func TestCliqueSetOps(t *testing.T) {
	s := NewCliqueSet([]Clique{{3, 1, 2}, {4, 5, 6}})
	if !s.Has(Clique{1, 2, 3}) {
		t.Error("Has should be order-insensitive")
	}
	tset := NewCliqueSet([]Clique{{1, 2, 3}})
	diff := s.Minus(tset)
	if len(diff) != 1 || diff[0].Key() != (Clique{4, 5, 6}).Key() {
		t.Errorf("Minus = %v", diff)
	}
	if s.Equal(tset) {
		t.Error("unequal sets reported equal")
	}
	if !s.Equal(NewCliqueSet([]Clique{{6, 5, 4}, {2, 1, 3}})) {
		t.Error("equal sets reported unequal")
	}
}

func TestLocalLister(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}}
	ll := NewLocalLister(edges)
	got := NewCliqueSet(ll.ListCliques(4))
	if got.Len() != 1 || !got.Has(Clique{0, 1, 2, 3}) {
		t.Errorf("local K4 listing = %v", got.Cliques())
	}
	tri := NewCliqueSet(ll.ListCliques(3))
	if tri.Len() != 4 {
		t.Errorf("local K3 count = %d, want 4", tri.Len())
	}
	// p = 2 lists exactly the known edges, canonical and sorted.
	wantEdges := []Clique{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if got := ll.ListCliques(2); !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("local edge listing = %v, want %v", got, wantEdges)
	}
}

func TestLocalListerMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := ErdosRenyi(40, 0.3, rng)
		ll := NewLocalLister(g.Edges())
		for p := 3; p <= 5; p++ {
			want := NewCliqueSet(g.ListCliques(p))
			got := NewCliqueSet(ll.ListCliques(p))
			if !got.Equal(want) {
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

func TestAppendKeyMatchesKey(t *testing.T) {
	cs := []Clique{{}, {0}, {5, 9}, {1, 2, 3, 4}, {7, 123456, 1 << 20, 1<<30 + 17}}
	for _, c := range cs {
		var buf [64]byte
		if got := string(c.AppendKey(buf[:0])); got != c.Key() {
			t.Errorf("AppendKey(%v) != Key()", c)
		}
		// Appending must extend, not clobber.
		pre := []byte("pre")
		ext := c.AppendKey(pre)
		if string(ext[:3]) != "pre" || string(ext[3:]) != c.Key() {
			t.Errorf("AppendKey(%v) with prefix corrupted the buffer", c)
		}
	}
}

func TestCliqueSetAddHasUnsorted(t *testing.T) {
	s := make(CliqueSet)
	s.Add(Clique{9, 1, 5})
	if !s.Has(Clique{5, 9, 1}) || !s.Has(Clique{1, 5, 9}) {
		t.Error("Add/Has must canonicalize order")
	}
	if s.Has(Clique{1, 5}) {
		t.Error("prefix must not be a member")
	}
	// Cliques longer than the stack scratch still work.
	long := make(Clique, 24)
	for i := range long {
		long[i] = V(24 - i)
	}
	s.Add(long)
	rev := make(Clique, 24)
	for i := range rev {
		rev[i] = V(i + 1)
	}
	if !s.Has(rev) {
		t.Error("long cliques must round-trip through Add/Has")
	}
}
