package congest

import (
	"fmt"
	"math/rand"
	"testing"

	"kplist/internal/graph"
)

// benchDense returns the dense benchmark workload: an Erdős–Rényi graph at
// density 1/2, the regime where every round moves Θ(n²) words and the
// engine's per-send and per-delivery overheads dominate wall-clock.
func benchDense(n int) *graph.Graph {
	return graph.ErdosRenyi(n, 0.5, rand.New(rand.NewSource(42)))
}

const benchRounds = 8

// BenchmarkNetworkRun saturates every edge of a dense graph for a fixed
// number of rounds through the goroutine engine: each node broadcasts one
// word per round, so each round delivers 2m messages.
func BenchmarkNetworkRun(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := benchDense(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				net := NewNetwork(g, Options{})
				stats, err := net.Run(func(ctx *Context) error {
					for r := 0; r < benchRounds; r++ {
						if err := ctx.Broadcast(Word{Tag: TagData, A: ctx.ID()}); err != nil {
							return err
						}
						if _, err := ctx.NextRound(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(benchRounds), "words/round")
		})
	}
}

// broadcastMachine is the Machine-interface twin of the BenchmarkNetworkRun
// program: broadcast one word per round for benchRounds rounds, then stop.
// The final step sends nothing, so all benchRounds batches are delivered and
// the Stats match the goroutine-engine benchmark exactly.
type broadcastMachine struct {
	id graph.V
	g  *graph.Graph
}

func (m *broadcastMachine) Step(round int, in []Message, send func(graph.V, Word) error) (bool, error) {
	if round >= benchRounds {
		return true, nil
	}
	for _, nb := range m.g.Neighbors(m.id) {
		if err := send(nb, Word{Tag: TagData, A: m.id}); err != nil {
			return false, err
		}
	}
	return false, nil
}

func benchMachines(b *testing.B, n int, run func(*graph.Graph, MachineMaker, Options) (Stats, error)) {
	g := benchDense(n)
	mk := func(id graph.V, gg *graph.Graph) Machine {
		return &broadcastMachine{id: id, g: gg}
	}
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		stats, err := run(g, mk, Options{})
		if err != nil {
			b.Fatal(err)
		}
		msgs = stats.Messages
	}
	b.ReportMetric(float64(msgs)/float64(benchRounds), "words/round")
}

// BenchmarkRunSequential saturates every edge through the deterministic
// single-threaded engine.
func BenchmarkRunSequential(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMachines(b, n, RunSequential) })
	}
}
