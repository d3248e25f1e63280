package congest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kplist/internal/graph"
)

// ErrAborted is returned from Context operations after the run has been
// aborted (another node errored, or the round limit was hit).
var ErrAborted = errors.New("congest: run aborted")

// NodeFunc is the per-node program executed by the real engine. It runs on
// its own goroutine; ctx provides topology queries, sending, and the round
// barrier. Returning ends the node's participation.
type NodeFunc func(ctx *Context) error

// Options configures a Network run.
type Options struct {
	// EdgeCapacity is the number of words each directed edge may carry per
	// round. CONGEST is 1 (the default when 0).
	EdgeCapacity int
	// MaxRounds aborts the run if exceeded, to turn deadlocked or divergent
	// programs into errors. Default 1 << 20 when 0.
	MaxRounds int
}

func (o Options) withDefaults() Options {
	if o.EdgeCapacity <= 0 {
		o.EdgeCapacity = 1
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 1 << 20
	}
	return o
}

// Stats reports what a run of the engine actually used: Rounds is the
// number of barriers (synchronous message exchanges) executed, Messages the
// number of words delivered across them. Engines agree on these numbers:
// for the same program, Run/RunMachines and RunSequential report identical
// Stats (the equivalence tests assert this).
type Stats struct {
	Rounds   int
	Messages int64
}

// Network is the real synchronous CONGEST engine over a communication
// graph. Each node runs a NodeFunc on its own goroutine; rounds advance in
// lockstep when every live node has reached the barrier; per-edge bandwidth
// is enforced mechanically (Send fails when the edge is full).
//
// The engine is sharded: each node's outbox is private to its goroutine
// (Send takes no lock — it appends into a neighbor-indexed slot buffer),
// and the only global synchronization is the round barrier, where delivery
// is merged in parallel across destination nodes.
type Network struct {
	g    *graph.Graph
	opts Options
	ei   *edgeIndex
}

// NewNetwork creates an engine over the communication graph g.
func NewNetwork(g *graph.Graph, opts Options) *Network {
	return &Network{g: g, opts: opts.withDefaults(), ei: newEdgeIndex(g)}
}

// runState is the shared coordinator state of one Run.
type runState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	net     *Network
	round   atomic.Int64
	aborted atomic.Bool
	waiting int
	active  int
	err     error
	// shards holds the per-node outboxes; node v writes only shards.out[v]
	// between barriers, so Send is lock-free.
	shards *shardSet
	// inbox[v] is rebuilt at every barrier (freshly allocated: programs may
	// legally retain the slice NextRound hands them).
	inbox    [][]Message
	messages int64
	workers  int
}

// Context is the API a NodeFunc uses to interact with the network.
type Context struct {
	id graph.V
	st *runState
	in []Message
}

// ID returns this node's vertex ID.
func (c *Context) ID() graph.V { return c.id }

// N returns the number of nodes in the network.
func (c *Context) N() int { return c.st.net.g.N() }

// Round returns the current round number (0 before the first barrier).
func (c *Context) Round() int { return int(c.st.round.Load()) }

// Neighbors returns this node's sorted neighbor list (shared; do not modify).
func (c *Context) Neighbors() []graph.V { return c.st.net.g.Neighbors(c.id) }

// Degree returns this node's degree.
func (c *Context) Degree() int { return c.st.net.g.Degree(c.id) }

// HasNeighbor reports whether v is adjacent to this node.
func (c *Context) HasNeighbor(v graph.V) bool { return c.st.net.g.HasEdge(c.id, v) }

// Send queues one word to neighbor `to` for delivery at the next barrier.
// It fails if `to` is not a neighbor, if this round's capacity on the edge
// is exhausted, or if the run has been aborted. Failing on overflow — not
// silently queueing — is what makes the engine a mechanical check of the
// CONGEST bandwidth constraint.
//
// Send touches only this node's own outbox shard and takes no lock.
func (c *Context) Send(to graph.V, w Word) error {
	st := c.st
	if st.aborted.Load() {
		return ErrAborted
	}
	slot := st.net.ei.slot(c.id, to)
	if slot < 0 {
		return fmt.Errorf("congest: node %d sending to non-neighbor %d", c.id, to)
	}
	return c.queue(slot, to, w)
}

// queue is the shared bandwidth-enforcement path of Send and Broadcast:
// append w to this node's slot buffer unless the edge is at capacity.
func (c *Context) queue(slot int, to graph.V, w Word) error {
	st := c.st
	box := st.shards.out[c.id]
	if len(box[slot]) >= st.net.opts.EdgeCapacity {
		return fmt.Errorf("congest: node %d exceeded capacity %d on edge to %d in round %d",
			c.id, st.net.opts.EdgeCapacity, to, st.round.Load())
	}
	box[slot] = append(box[slot], w)
	st.shards.sent[c.id]++
	return nil
}

// Broadcast queues the same word to every neighbor. Same capacity rules as
// Send.
func (c *Context) Broadcast(w Word) error {
	if c.st.aborted.Load() {
		return ErrAborted
	}
	for slot, nb := range c.Neighbors() {
		if err := c.queue(slot, nb, w); err != nil {
			return err
		}
	}
	return nil
}

// NextRound blocks at the round barrier and returns the messages delivered
// to this node, sorted by sender. It returns ErrAborted if the run aborted
// while waiting.
func (c *Context) NextRound() ([]Message, error) {
	st := c.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.aborted.Load() {
		return nil, ErrAborted
	}
	gen := st.round.Load()
	st.waiting++
	if st.waiting >= st.active {
		st.advanceLocked()
	} else {
		for st.round.Load() == gen && !st.aborted.Load() {
			st.cond.Wait()
		}
	}
	if st.aborted.Load() {
		return nil, ErrAborted
	}
	c.in = st.inbox[c.id]
	return c.in, nil
}

// advanceLocked delivers all queued messages and advances the round. The
// caller holds st.mu and every other live node is blocked on the condition
// variable, so the delivery workers have exclusive access to the shards.
func (st *runState) advanceLocked() {
	n := st.net.g.N()
	total := st.shards.takeQueued()
	if total > 0 {
		parallelFor(n, st.workers, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				cnt := st.shards.countFor(graph.V(v))
				if cnt == 0 {
					st.inbox[v] = nil
					continue
				}
				st.inbox[v] = st.shards.gather(graph.V(v), make([]Message, 0, cnt))
			}
		})
		st.messages += total
	} else {
		for v := 0; v < n; v++ {
			st.inbox[v] = nil
		}
	}
	st.round.Add(1)
	st.waiting = 0
	if int(st.round.Load()) > st.net.opts.MaxRounds {
		st.abortLocked(fmt.Errorf("congest: exceeded MaxRounds=%d", st.net.opts.MaxRounds))
		return
	}
	st.cond.Broadcast()
}

func (st *runState) abortLocked(err error) {
	if !st.aborted.Load() {
		st.aborted.Store(true)
		st.err = err
	}
	st.cond.Broadcast()
}

// finish marks a node as done; if all remaining nodes are at the barrier,
// the round advances.
func (st *runState) finish() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.active--
	if st.active > 0 && st.waiting >= st.active && !st.aborted.Load() {
		st.advanceLocked()
	}
}

// Run executes prog on every node until all programs return. It returns
// engine statistics (rounds consumed, total messages delivered) and the
// first program error, if any. Inboxes are delivered sorted by sender (ties
// between words of one sender keep send order), so runs are deterministic
// for deterministic programs.
func (net *Network) Run(prog NodeFunc) (Stats, error) {
	n := net.g.N()
	st := &runState{net: net, active: n, workers: deliveryWorkers(n)}
	st.cond = sync.NewCond(&st.mu)
	st.shards = newShardSet(net.ei)
	st.inbox = make([][]Message, n)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(n)
	for v := 0; v < n; v++ {
		ctx := &Context{id: graph.V(v), st: st}
		go func() {
			defer wg.Done()
			defer st.finish()
			if err := prog(ctx); err != nil && !errors.Is(err, ErrAborted) {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("node %d: %w", ctx.id, err)
					st.mu.Lock()
					st.abortLocked(firstErr)
					st.mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	if firstErr == nil && st.err != nil {
		firstErr = st.err
	}
	return Stats{Rounds: int(st.round.Load()), Messages: st.messages}, firstErr
}

// RunMachines executes a Machine program (the sequential engines' interface)
// on the goroutine engine: each node steps its machine once per round and
// blocks at the barrier between steps. For the same machines and options,
// RunMachines and RunSequential return identical Stats and deliver
// identical inboxes — the cross-engine equivalence tests rely on this
// adapter.
func (net *Network) RunMachines(mk MachineMaker) (Stats, error) {
	return net.Run(func(ctx *Context) error {
		m := mk(ctx.ID(), net.g)
		var in []Message
		for r := 0; ; r++ {
			done, err := m.Step(r, in, func(to graph.V, w Word) error { return ctx.Send(to, w) })
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			if in, err = ctx.NextRound(); err != nil {
				return err
			}
		}
	})
}
