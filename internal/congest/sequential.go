package congest

import (
	"fmt"

	"kplist/internal/graph"
)

// Machine is the per-node program interface of the lockstep engine: an
// explicit state machine stepped once per round. RunSequential has
// identical semantics to the goroutine Network (same per-edge capacity,
// same sorted delivery order, same Stats) and exists for deterministic
// debugging and for cross-validating the real engine through
// Network.RunMachines; the equivalence is tested.
type Machine interface {
	// Step is invoked once per round with the messages delivered this
	// round (sorted by sender). The machine sends by calling send, which
	// enforces the per-edge capacity exactly like Context.Send. Returning
	// done=true ends this node's participation; its queued messages are
	// still delivered (unless every machine finished this round, in which
	// case there is no one left to receive them and no further round is
	// billed).
	//
	// The `in` slice is owned by the engine and reused across rounds:
	// machines must not retain it past the Step call. Under
	// Network.RunMachines, machines of different nodes are stepped
	// concurrently and must not share mutable state.
	Step(round int, in []Message, send func(to graph.V, w Word) error) (done bool, err error)
}

// MachineMaker constructs the machine for each node.
type MachineMaker func(id graph.V, g *graph.Graph) Machine

// RunSequential executes machines over g in lockstep rounds on a single
// goroutine, deterministically, until every machine reports done. Semantics
// match Network.RunMachines: identical Stats, identical inboxes. There is
// no per-round allocation on the steady-state path: capacity enforcement
// is the length of the per-edge slot buffer (no map), and inbox/outbox
// buffers are truncated and reused across rounds.
func RunSequential(g *graph.Graph, mk MachineMaker, opts Options) (Stats, error) {
	opts = opts.withDefaults()
	n := g.N()
	machines := make([]Machine, n)
	done := make([]bool, n)
	for v := 0; v < n; v++ {
		machines[v] = mk(graph.V(v), g)
	}
	ei := newEdgeIndex(g)
	shards := newShardSet(ei)
	inbox := make([][]Message, n)

	round := 0 // read by send closures
	sends := make([]func(to graph.V, w Word) error, n)
	for v := 0; v < n; v++ {
		id := graph.V(v)
		box := shards.out[v]
		sends[v] = func(to graph.V, w Word) error {
			slot := ei.slot(id, to)
			if slot < 0 {
				return fmt.Errorf("congest: node %d sending to non-neighbor %d", id, to)
			}
			if len(box[slot]) >= opts.EdgeCapacity {
				return fmt.Errorf("congest: node %d exceeded capacity %d on edge to %d in round %d",
					id, opts.EdgeCapacity, to, round)
			}
			box[slot] = append(box[slot], w)
			shards.sent[v]++
			return nil
		}
	}

	var messages int64
	live := n
	for live > 0 {
		if round > opts.MaxRounds {
			return Stats{Rounds: round, Messages: messages}, fmt.Errorf("congest: exceeded MaxRounds=%d", opts.MaxRounds)
		}
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			d, err := machines[v].Step(round, inbox[v], sends[v])
			if err != nil {
				return Stats{Rounds: round, Messages: messages}, fmt.Errorf("node %d: %w", v, err)
			}
			if d {
				done[v] = true
				live--
			}
		}
		if live == 0 {
			// Every machine finished this round: nobody is left to receive,
			// so the final sends are not delivered and no round is billed
			// (exactly what the goroutine engine does when all programs
			// return without another barrier).
			break
		}
		// Barrier merge: ascending sender, send order per sender.
		total := shards.takeQueued()
		for v := range inbox {
			inbox[v] = inbox[v][:0]
			if total > 0 {
				inbox[v] = shards.gather(graph.V(v), inbox[v])
			}
		}
		messages += total
		round++
	}
	return Stats{Rounds: round, Messages: messages}, nil
}
