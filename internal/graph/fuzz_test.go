package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadEdgeList fuzzes the edge-list text parser: arbitrary input must
// either parse into a graph whose write/read round-trip is the identity,
// or fail with an error — never panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("", 0)
	f.Add("", 1)
	f.Add("# comment only\n", 4)
	f.Add("0 1\n1 2\n", 3)
	f.Add("0 1\n0 1\n1 0\n", 2) // duplicate edges, both orders
	f.Add("0 0\n", 1)           // self-loop
	f.Add("3 4\n", 2)           // out of range
	f.Add("a b\n", 2)
	f.Add("1 2 3\n", 4)
	f.Add("0 1 # trailing comment\n", 2)
	f.Add("-1 0\n", 2)
	f.Add("99999999999999999999 1\n", 2)
	f.Fuzz(func(t *testing.T, text string, n int) {
		if n < 0 {
			n = -n
		}
		n %= 512
		g, err := ReadEdgeList(strings.NewReader(text), n)
		if err != nil {
			return
		}
		if g.N() != n {
			t.Fatalf("parsed graph has %d vertices, want %d", g.N(), n)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		g2, err := ReadEdgeList(&buf, n)
		if err != nil {
			t.Fatalf("round-trip parse: %v", err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatalf("round trip changed the edge set: %v vs %v", g.Edges(), g2.Edges())
		}
	})
}

// FuzzNewGraph fuzzes graph construction from raw edge bytes, including
// out-of-range endpoints, self-loops and duplicates: New must error exactly
// when an endpoint is out of range, and otherwise uphold the adjacency
// invariants.
func FuzzNewGraph(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(1, []byte{0, 0})       // self-loop on the only vertex
	f.Add(2, []byte{0, 1, 0, 1}) // duplicate edge
	f.Add(2, []byte{1, 0, 0, 1}) // duplicate, swapped orientation
	f.Add(3, []byte{0, 9})       // out of range
	f.Add(4, []byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 {
			n = -n
		}
		n %= 300
		edges := make([]Edge, 0, len(raw)/2)
		outOfRange := false
		for i := 0; i+1 < len(raw); i += 2 {
			// Spread endpoints beyond [0,n) so the error path is exercised:
			// raw bytes land in [-2, 253].
			u, v := V(int(raw[i])-2), V(int(raw[i+1])-2)
			if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
				outOfRange = true
			}
			edges = append(edges, Edge{u, v})
		}
		g, err := New(n, edges)
		if outOfRange {
			if err == nil {
				t.Fatal("out-of-range endpoint accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("in-range edges rejected: %v", err)
		}
		// Invariants: sorted strictly-increasing adjacency, symmetry,
		// degree sum = 2m, no self-loops.
		total := 0
		for v := 0; v < g.N(); v++ {
			adj := g.Neighbors(V(v))
			total += len(adj)
			for i, u := range adj {
				if u == V(v) {
					t.Fatalf("self-loop survived at %d", v)
				}
				if i > 0 && adj[i-1] >= u {
					t.Fatalf("adjacency of %d not strictly sorted: %v", v, adj)
				}
				if !g.HasEdge(u, V(v)) || !g.HasEdge(V(v), u) {
					t.Fatalf("asymmetric edge {%d,%d}", v, u)
				}
			}
		}
		if total != 2*g.M() {
			t.Fatalf("degree sum %d != 2m %d", total, 2*g.M())
		}
	})
}

// FuzzKernelCliques fuzzes the enumeration kernel against the O(n^p)
// brute-force reference over random edge lists: the listing (sequential
// and parallel) and the counting mode, on the graph and on one built
// from the raw fuzzed list through EdgeList.Graph, must all agree exactly
// for every p.
func FuzzKernelCliques(f *testing.F) {
	f.Add(4, []byte{0, 1, 1, 2, 0, 2})                   // triangle + isolated
	f.Add(5, []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}) // K4 + pendant
	f.Add(1, []byte{})
	f.Add(9, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 2, 4, 6, 8})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 {
			n = -n
		}
		n = n%20 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{V(int(raw[i]) % n), V(int(raw[i+1]) % n)})
		}
		g := MustNew(n, edges)
		// The raw list (duplicates, both orientations, self-loops) builds
		// its own graph, whose kernel must list the same.
		fromRaw, err := EdgeList(edges).Graph(n)
		if err != nil {
			t.Fatal(err)
		}
		for p := 2; p <= 5; p++ {
			want := bruteForceCliques(g, p)
			seq := g.ListCliquesWorkers(p, 1)
			if !sameCliques(seq, want) {
				t.Fatalf("p=%d: kernel listed %v, brute force %v", p, seq, want)
			}
			par := g.ListCliquesWorkers(p, 4)
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("p=%d: parallel listing diverges from sequential", p)
			}
			if got := g.CountCliques(p); got != int64(len(want)) {
				t.Fatalf("p=%d: count %d, want %d", p, got, len(want))
			}
			if got := fromRaw.ListCliquesWorkers(p, 1); !sameCliques(got, want) {
				t.Fatalf("p=%d: the raw edge list's graph listed %v, want %v", p, got, want)
			}
		}
	})
}

// FuzzDynGraphApply fuzzes the incremental clique-delta engine: a random
// interleaved add/remove op stream (applied in randomly sized batches)
// must leave every tracked listing exactly equal to a brute-force recount
// of the final graph, for every p, on vertex sets up to 32.
func FuzzDynGraphApply(f *testing.F) {
	f.Add(4, []byte{0, 0, 1, 1, 1, 2, 0, 0, 2})
	f.Add(6, []byte{0, 0, 1, 0, 0, 2, 0, 1, 2, 0, 0, 3, 0, 1, 3, 0, 2, 3, 1, 0, 1})
	f.Add(9, []byte{1, 1, 2, 0, 3, 4, 2, 5, 6, 0, 1, 2, 1, 3, 4})
	f.Add(32, []byte{})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 {
			n = -n
		}
		n = n%32 + 1
		// Start from a deterministic sparse seed so deletions bite.
		var seed []Edge
		for v := 1; v < n; v++ {
			seed = append(seed, Edge{V(v / 2), V(v)})
		}
		g := MustNew(n, seed)
		d := NewDynGraph(g, DynConfig{}, 3, 4)
		// Decode ops: 3 bytes each — op parity, two endpoints mod n. Batch
		// boundaries every 5 ops exercise multi-mutation deltas.
		var batch []Mutation
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, err := d.ApplyBatch(batch); err != nil {
				t.Fatalf("in-range batch rejected: %v", err)
			}
			batch = batch[:0]
		}
		for i := 0; i+2 < len(raw); i += 3 {
			u, v := V(int(raw[i+1])%n), V(int(raw[i+2])%n)
			if u == v {
				continue
			}
			op := MutAdd
			if raw[i]%2 == 1 {
				op = MutDel
			}
			batch = append(batch, Mutation{op, Edge{u, v}.Canon()})
			if len(batch) == 5 {
				flush()
			}
		}
		flush()
		final := d.Snapshot()
		for _, p := range []int{3, 4} {
			want := bruteForceCliques(final, p)
			got, ok := d.Cliques(p)
			if !ok {
				t.Fatalf("p=%d untracked", p)
			}
			if !sameCliques(got, want) {
				t.Fatalf("p=%d: maintained %v, brute force %v", p, got, want)
			}
			// The maintained listing is byte-deterministic: identical to the
			// static kernel's lexicographic output.
			if kernel := final.ListCliques(p); !reflect.DeepEqual(got, kernel) && len(kernel) > 0 {
				t.Fatalf("p=%d: maintained order diverges from kernel listing", p)
			}
		}
	})
}
