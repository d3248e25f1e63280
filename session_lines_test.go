package kplist

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kplist/internal/graph"
)

// encodeCliques is the reference NDJSON encoding of a listing.
func encodeCliques(cs []Clique) string {
	var b []byte
	for _, c := range cs {
		b = c.AppendLine(b)
	}
	return string(b)
}

// TestSessionTruthLinesTrackApply checks the encoded memo against a fresh
// encoding of ListCliques on the new snapshot after a batch that leaves
// the triangles alone (the memo is re-keyed, the very same bytes) and
// after one that adds a triangle (the memo is dropped and re-encoded).
func TestSessionTruthLinesTrackApply(t *testing.T) {
	s := NewSession(twoTriangleGraph(t), SessionConfig{})
	defer s.Close()
	lines := func() []byte {
		b := s.GroundTruthLines(3, 0, s.Graph().N())
		if want := encodeCliques(s.Graph().ListCliques(3)); string(b) != want {
			t.Fatalf("memo %q, want %q", b, want)
		}
		return b
	}
	before := lines()

	ar, err := s.Apply(context.Background(), []Mutation{AddEdgeMutation(6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if ar.InvalidatedTruths != 0 {
		t.Fatalf("a batch outside every triangle dropped the memo: %+v", ar)
	}
	if after := lines(); &after[0] != &before[0] {
		t.Fatal("the re-keyed memo was re-encoded instead of served")
	}

	ar, err = s.Apply(context.Background(), []Mutation{AddEdgeMutation(7, 8), AddEdgeMutation(6, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if ar.InvalidatedTruths != 1 {
		t.Fatalf("a batch adding a triangle kept the memo: %+v", ar)
	}
	if got := strings.Count(string(lines()), "\n"); got != 3 {
		t.Fatalf("%d triangles after the batch, want 3", got)
	}

	// A root range's share of the listing tracks the snapshot too; a
	// range past either end of [0, n) clamps, and an inverted one is empty.
	all := s.Graph().ListCliques(3)
	for _, r := range [][2]int{{0, 6}, {1, 6}, {3, 4}, {4, 6}, {6, 10}, {-5, 1}, {1, 1 << 30}, {5, 2}} {
		var kept []Clique
		for _, c := range all {
			if int(c[0]) >= r[0] && int(c[0]) < r[1] {
				kept = append(kept, c)
			}
		}
		if got := s.GroundTruthLines(3, r[0], r[1]); string(got) != encodeCliques(kept) {
			t.Fatalf("range %v: lines %q, want %q", r, got, encodeCliques(kept))
		}
	}
}

// TestSessionGroundTruthDecodesFresh: GroundTruth decodes the memo into a
// slice the caller owns.
func TestSessionGroundTruthDecodesFresh(t *testing.T) {
	s := NewSession(twoTriangleGraph(t), SessionConfig{})
	defer s.Close()
	a := s.GroundTruth(3)
	a[0][0] = 9
	if b := s.GroundTruth(3); b[0][0] != 0 || encodeCliques(b) != encodeCliques(s.Graph().ListCliques(3)) {
		t.Fatalf("GroundTruth shares its slice: %v", b)
	}
	if s.GroundTruth(5) != nil {
		t.Fatal("an empty listing decodes to nil, as ListCliques returns it")
	}
}

// TestSessionVerifyRejectsMismatch: a verifying session refuses a result
// that is not, element by element, the lexicographic listing it checks
// against. Each case edits the memo the check decodes, which makes the
// engine's (correct) result the wrong one: one clique short, a clique
// listed twice, and two cliques out of order. The last two hold the very
// same clique set, so only an exact comparison rejects them.
func TestSessionVerifyRejectsMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(lines [][]byte) [][]byte
	}{
		{"trimmed", func(lines [][]byte) [][]byte { return lines[:len(lines)-1] }},
		{"duplicated", func(lines [][]byte) [][]byte { return append(lines, lines[len(lines)-1]) }},
		{"out of order", func(lines [][]byte) [][]byte {
			lines[0], lines[1] = lines[1], lines[0]
			return lines
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(ErdosRenyi(40, 0.3, 3), SessionConfig{Verify: true})
			defer s.Close()
			if _, err := s.Query(Query{P: 3, Algo: AlgoCongestedClique, Seed: 1}); err != nil {
				t.Fatalf("verifying query against the true memo: %v", err)
			}
			s.gtMu.Lock()
			e := s.gt[gtKey{p: 3}]
			lines := bytes.SplitAfter(e.lines, []byte("\n"))
			lines = tc.edit(lines[:len(lines)-1]) // drop the empty tail after the last newline
			e.lines, e.count = bytes.Join(lines, nil), len(lines)
			s.gtMu.Unlock()
			_, err := s.Query(Query{P: 3, Algo: AlgoCongestedClique, Seed: 2})
			if err == nil || !strings.Contains(err.Error(), "verify failed") {
				t.Fatalf("verifying query against a %s memo: %v, want a verify failure", tc.name, err)
			}
		})
	}
}

// TestSessionTruthLinesRaceApply races memo readers (lex bytes, a root
// range's share, decoded slices) against mutation batches: every read
// must be the encoding of some prefix of the batch history. CI runs it
// under -race.
func TestSessionTruthLinesRaceApply(t *testing.T) {
	g := ErdosRenyi(48, 0.25, 5)
	s := NewSession(g, SessionConfig{})
	defer s.Close()
	batches := [][]Mutation{
		{AddEdgeMutation(0, 1), AddEdgeMutation(1, 2), AddEdgeMutation(0, 2)},
		{DelEdgeMutation(0, 1)},
		{AddEdgeMutation(3, 4), DelEdgeMutation(1, 2)},
		{AddEdgeMutation(0, 1), AddEdgeMutation(5, 6)},
	}
	valid := map[string]bool{encodeCliques(g.ListCliques(3)): true}
	dyn := graph.NewDynGraph(g, graph.DynConfig{})
	for _, b := range batches {
		if _, err := dyn.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		valid[encodeCliques(dyn.Snapshot().ListCliques(3))] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var got string
				switch w % 3 {
				case 0:
					got = string(s.GroundTruthLines(3, 0, g.N()))
				case 1:
					// Two ranges that cover [0, n) concatenate to the whole.
					got = string(s.GroundTruthLines(3, 0, 20)) + string(s.GroundTruthLines(3, 20, g.N()))
				case 2:
					got = encodeCliques(s.GroundTruth(3))
				}
				if !valid[got] {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}(w)
	}
	for _, b := range batches {
		if _, err := s.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("a memo read matches no prefix of the batch history: %d lines", strings.Count(got, "\n"))
	}
}

// visitCliques is the reference encoding of a visit-order listing.
func visitCliques(g *Graph, p int) string {
	var b []byte
	g.VisitCliques(p, func(c Clique) { b = c.AppendLine(b) })
	return string(b)
}

// TestSessionVisitLinesRaceApply races visit-order memo readers against
// mutation batches: every read must be the visit-order encoding of some
// snapshot of the batch history. CI runs it under -race.
func TestSessionVisitLinesRaceApply(t *testing.T) {
	g := ErdosRenyi(48, 0.25, 5)
	s := NewSession(g, SessionConfig{})
	defer s.Close()
	batches := [][]Mutation{
		{AddEdgeMutation(0, 1), AddEdgeMutation(1, 2), AddEdgeMutation(0, 2)},
		{DelEdgeMutation(0, 1)},
		{AddEdgeMutation(3, 4), DelEdgeMutation(1, 2)},
		{AddEdgeMutation(0, 1), AddEdgeMutation(5, 6)},
	}
	valid := map[string]bool{visitCliques(g, 3): true}
	dyn := graph.NewDynGraph(g, graph.DynConfig{})
	for _, b := range batches {
		if _, err := dyn.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		valid[visitCliques(dyn.Snapshot(), 3)] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				chunks, ok := s.GroundTruthChunks(3)
				if !ok {
					errs <- "GroundTruthChunks: over the ceiling"
					return
				}
				if got := string(bytes.Join(chunks, nil)); !valid[got] {
					select {
					case errs <- fmt.Sprintf("a visit read matches no snapshot of the batch history: %d lines", strings.Count(got, "\n")):
					default:
					}
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if _, err := s.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSessionTruthHugeP: a clique size no Kp can have is an empty
// listing in either order and leaves no memo entry behind.
func TestSessionTruthHugeP(t *testing.T) {
	s := NewSession(twoTriangleGraph(t), SessionConfig{})
	defer s.Close()
	for _, p := range []int{4, 1 << 30} {
		if lines := s.GroundTruthLines(p, 0, s.Graph().N()); len(lines) != 0 {
			t.Fatalf("p=%d: %d lex bytes, want an empty listing", p, len(lines))
		}
		if chunks, ok := s.GroundTruthChunks(p); !ok || len(chunks) != 0 {
			t.Fatalf("p=%d: %d visit chunks, ok %v; want an empty listing", p, len(chunks), ok)
		}
		if s.GroundTruth(p) != nil {
			t.Fatalf("p=%d: GroundTruth is not empty", p)
		}
	}
	if len(s.gt) != 0 {
		t.Fatalf("empty listings left %d memo entries", len(s.gt))
	}
}
