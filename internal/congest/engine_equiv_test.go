package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kplist/internal/graph"
)

// splitmix64 is a tiny deterministic hash used to derive every decision a
// scripted machine makes from (seed, id, round, slot), so all three engines
// run literally the same program.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// scriptMachine is a pseudo-random but fully deterministic program: each
// round it sends a hash-chosen number of words (within capacity) to a
// hash-chosen subset of neighbors, records a copy of its inbox, and
// finishes at a hash-chosen round. Machines share nothing mutable, so the
// same maker drives RunSequential and Network.RunMachines.
type scriptMachine struct {
	id         graph.V
	g          *graph.Graph
	seed       uint64
	cap        int
	last       int
	transcript [][]Message
}

func (m *scriptMachine) Step(round int, in []Message, send func(graph.V, Word) error) (bool, error) {
	got := make([]Message, len(in))
	copy(got, in) // `in` is engine-owned and reused; transcripts need copies
	m.transcript = append(m.transcript, got)
	for i := 1; i < len(in); i++ {
		if in[i-1].From > in[i].From {
			return false, fmt.Errorf("inbox not sorted: %d before %d", in[i-1].From, in[i].From)
		}
	}
	if round >= m.last {
		return true, nil
	}
	for slot, nb := range m.g.Neighbors(m.id) {
		h := splitmix64(m.seed ^ uint64(m.id)<<40 ^ uint64(round)<<20 ^ uint64(slot))
		words := int(h % uint64(m.cap+2)) // 0..cap+1 words, biased to stay legal
		if words > m.cap {
			words = m.cap
		}
		for k := 0; k < words; k++ {
			w := Word{Tag: TagData, A: m.id, B: graph.V(h>>32) % graph.V(m.g.N())}
			if err := send(nb, w); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// scriptRun executes the scripted program on one engine and returns the
// stats plus every node's per-round inbox transcript.
func scriptRun(t *testing.T, g *graph.Graph, seed uint64, capacity, maxR int,
	run func(*graph.Graph, MachineMaker, Options) (Stats, error)) (Stats, [][][]Message) {
	t.Helper()
	machines := make([]*scriptMachine, g.N())
	mk := func(id graph.V, gg *graph.Graph) Machine {
		m := &scriptMachine{
			id: id, g: gg, seed: seed, cap: capacity,
			last: 1 + int(splitmix64(seed^uint64(id)*0xABCD)%uint64(maxR)),
		}
		machines[id] = m
		return m
	}
	stats, err := run(g, mk, Options{EdgeCapacity: capacity})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	out := make([][][]Message, g.N())
	for v, m := range machines {
		out[v] = m.transcript
	}
	return stats, out
}

// netRun adapts Network.RunMachines to the RunSequential signature.
func netRun(g *graph.Graph, mk MachineMaker, opts Options) (Stats, error) {
	return NewNetwork(g, opts).RunMachines(mk)
}

// TestEnginesEquivalentRandom cross-validates the engines on random graphs
// and random programs: identical Stats (rounds and message totals) and
// identical per-round inbox contents and orderings at every node, for the
// single-threaded engine and the goroutine Network (with forced-parallel
// barrier delivery).
func TestEnginesEquivalentRandom(t *testing.T) {
	testForceWorkers = 5 // parallel barrier merges even on 1 CPU
	defer func() { testForceWorkers = 0 }()
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-sparse", graph.ErdosRenyi(40, 0.12, rng)},
		{"er-dense", graph.ErdosRenyi(32, 0.6, rng)},
		{"complete", graph.Complete(12)},
		{"cycle", graph.Cycle(17)},
		{"path", graph.Path(9)},
	}
	for _, tc := range cases {
		for _, capacity := range []int{1, 2} {
			for trial := 0; trial < 3; trial++ {
				seed := uint64(0xC0FFEE + trial*7919)
				name := fmt.Sprintf("%s/cap=%d/trial=%d", tc.name, capacity, trial)
				t.Run(name, func(t *testing.T) {
					seqStats, seqTr := scriptRun(t, tc.g, seed, capacity, 9, RunSequential)
					stats, tr := scriptRun(t, tc.g, seed, capacity, 9, netRun)
					if stats != seqStats {
						t.Fatalf("Network.RunMachines stats %+v != RunSequential stats %+v", stats, seqStats)
					}
					if !reflect.DeepEqual(tr, seqTr) {
						t.Fatalf("Network.RunMachines transcripts differ from RunSequential")
					}
				})
			}
		}
	}
}

// TestEnginesEquivalentErrors checks that both engines fail a program that
// overflows edge capacity, and that the lockstep engine deterministically
// blames the lowest overflowing node.
func TestEnginesEquivalentErrors(t *testing.T) {
	g := graph.Complete(6)
	mk := func(id graph.V, gg *graph.Graph) Machine {
		return machineFunc(func(round int, in []Message, send func(graph.V, Word) error) (bool, error) {
			if round == 2 && id >= 3 {
				// Nodes 3, 4, 5 all overflow edge capacity in round 2; the
				// reported error must deterministically blame node 3.
				for k := 0; k < 2; k++ {
					if err := send((id+1)%graph.V(gg.N()), Word{Tag: TagData}); err != nil {
						return false, err
					}
				}
			}
			return false, nil
		})
	}
	opts := Options{EdgeCapacity: 1, MaxRounds: 10}
	_, errSeq := RunSequential(g, mk, opts)
	if want := "node 3: congest: node 3 exceeded capacity 1 on edge to 4 in round 2"; errSeq == nil || errSeq.Error() != want {
		t.Fatalf("RunSequential error %v, want %q", errSeq, want)
	}
	if _, errNet := netRun(g, mk, opts); errNet == nil || !strings.Contains(errNet.Error(), "exceeded capacity 1") {
		t.Fatalf("Network.RunMachines error %v, want a capacity violation", errNet)
	}
}
