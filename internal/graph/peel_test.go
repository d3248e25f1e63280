package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPeelMemoZeroAlloc is the warm half of the peel-once canary: once a
// graph is peeled, Degeneracy and DegeneracyOrientation hand back the
// memoized values without allocating.
func TestPeelMemoZeroAlloc(t *testing.T) {
	g := ErdosRenyi(200, 0.1, rand.New(rand.NewSource(3)))
	d, o := g.Degeneracy(), g.DegeneracyOrientation()
	allocs := testing.AllocsPerRun(100, func() {
		if g.Degeneracy() != d || g.DegeneracyOrientation() != o {
			t.Fatal("a warm call returned a different value")
		}
	})
	if allocs != 0 {
		t.Errorf("warm Degeneracy + DegeneracyOrientation: %v allocs/op, want 0", allocs)
	}
}

// TestPeelMemoConcurrentFirstCalls pins that racing first calls all get
// the one value that won the memo (run it under -race).
func TestPeelMemoConcurrentFirstCalls(t *testing.T) {
	g := ErdosRenyi(300, 0.1, rand.New(rand.NewSource(4)))
	const callers = 8
	degens := make([]*DegeneracyResult, callers)
	orients := make([]*Orientation, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				orients[i] = g.DegeneracyOrientation()
				degens[i] = g.Degeneracy()
			} else {
				degens[i] = g.Degeneracy()
				orients[i] = g.DegeneracyOrientation()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if degens[i] != degens[0] || orients[i] != orients[0] {
			t.Fatalf("caller %d got a different memo than caller 0", i)
		}
	}
	if degens[0] != g.Degeneracy() || orients[0] != g.DegeneracyOrientation() {
		t.Fatal("later calls do not return the winning memo")
	}
}
