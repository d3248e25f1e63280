// Package congest holds the round bill of the CONGEST and CONGESTED
// CLIQUE models: the Ledger that algorithm phases charge, and the
// CostModel that turns a phase's measured loads into rounds. No message
// passing happens here. The phases in arblist, sparselist, core and
// baseline move data between per-node states directly, so their outputs
// are real, and charge the ledger what the paper's model would take.
//
// The model (paper footnotes 1 and 3): n nodes communicate in synchronous
// rounds; per round, each edge carries O(log n) bits in each direction. We
// fix the unit "word" to one edge's worth of payload (two vertex IDs plus a
// small tag), which is the accounting the paper itself uses.
package congest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ledger accumulates the round and message bill of an algorithm execution,
// broken down by named phase. The clique-listing pipeline moves data
// between per-node states directly (so outputs are real) and charges the
// ledger according to the paper's cost model; see DESIGN.md §5.
//
// A Ledger is safe for concurrent use. The zero value is ready to use.
type Ledger struct {
	mu     sync.Mutex
	phases map[string]*PhaseCost
	order  []string
}

// PhaseCost is the accumulated bill of one named phase.
type PhaseCost struct {
	Name     string
	Rounds   int64
	Messages int64
	Calls    int64
}

// Charge adds rounds and messages to the named phase. Rounds in CONGEST are
// additive across phases: phases of the pipeline are sequential.
func (l *Ledger) Charge(phase string, rounds, messages int64) {
	if rounds < 0 || messages < 0 {
		panic(fmt.Sprintf("congest: negative charge %d rounds / %d messages to %q", rounds, messages, phase))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.phases == nil {
		l.phases = make(map[string]*PhaseCost)
	}
	pc, ok := l.phases[phase]
	if !ok {
		pc = &PhaseCost{Name: phase}
		l.phases[phase] = pc
		l.order = append(l.order, phase)
	}
	pc.Rounds += rounds
	pc.Messages += messages
	pc.Calls++
}

// ChargeMax records the maximum of the given rounds and the phase's current
// rounds instead of adding. Used for phases that run in parallel across
// clusters: the round bill of a parallel super-phase is the max over
// clusters, while messages still add up.
func (l *Ledger) ChargeMax(phase string, rounds, messages int64) {
	if rounds < 0 || messages < 0 {
		panic(fmt.Sprintf("congest: negative charge to %q", phase))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.phases == nil {
		l.phases = make(map[string]*PhaseCost)
	}
	pc, ok := l.phases[phase]
	if !ok {
		pc = &PhaseCost{Name: phase}
		l.phases[phase] = pc
		l.order = append(l.order, phase)
	}
	if rounds > pc.Rounds {
		pc.Rounds = rounds
	}
	pc.Messages += messages
	pc.Calls++
}

// Rounds returns the total rounds across all phases.
func (l *Ledger) Rounds() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, pc := range l.phases {
		total += pc.Rounds
	}
	return total
}

// Messages returns the total message count across all phases.
func (l *Ledger) Messages() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, pc := range l.phases {
		total += pc.Messages
	}
	return total
}

// Phase returns a copy of the named phase's bill (zero value if absent).
func (l *Ledger) Phase(name string) PhaseCost {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pc, ok := l.phases[name]; ok {
		return *pc
	}
	return PhaseCost{Name: name}
}

// Phases returns copies of all phase bills in first-charge order.
func (l *Ledger) Phases() []PhaseCost {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]PhaseCost, 0, len(l.order))
	for _, name := range l.order {
		out = append(out, *l.phases[name])
	}
	return out
}

// Merge adds every phase of other into l (sequential composition: rounds,
// messages, and calls all add).
func (l *Ledger) Merge(other *Ledger) { l.mergeFrom(other, false) }

// MergeMax folds other into l the way parallel sub-executions bill: per
// phase, rounds take the maximum of the two sides (the wall-clock of
// parallel work is the slowest participant) while messages and calls add.
// It is the merge matching ChargeMax: charging phases from k workers into
// one shared ledger via ChargeMax is equivalent to charging each worker's
// private ledger and MergeMax-ing them afterwards, which is how the
// cluster-parallel ARB-LIST keeps its bill identical to the sequential
// loop's.
func (l *Ledger) MergeMax(other *Ledger) { l.mergeFrom(other, true) }

func (l *Ledger) mergeFrom(other *Ledger, maxRounds bool) {
	for _, pc := range other.Phases() {
		l.mu.Lock()
		if l.phases == nil {
			l.phases = make(map[string]*PhaseCost)
		}
		dst, ok := l.phases[pc.Name]
		if !ok {
			dst = &PhaseCost{Name: pc.Name}
			l.phases[pc.Name] = dst
			l.order = append(l.order, pc.Name)
		}
		if maxRounds {
			if pc.Rounds > dst.Rounds {
				dst.Rounds = pc.Rounds
			}
		} else {
			dst.Rounds += pc.Rounds
		}
		dst.Messages += pc.Messages
		dst.Calls += pc.Calls
		l.mu.Unlock()
	}
}

// String renders the ledger as an aligned table, phases sorted by rounds
// descending, for experiment output.
func (l *Ledger) String() string {
	phases := l.Phases()
	sort.Slice(phases, func(i, j int) bool { return phases[i].Rounds > phases[j].Rounds })
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %14s %8s\n", "phase", "rounds", "messages", "calls")
	var tr, tm int64
	for _, pc := range phases {
		fmt.Fprintf(&b, "%-34s %12d %14d %8d\n", pc.Name, pc.Rounds, pc.Messages, pc.Calls)
		tr += pc.Rounds
		tm += pc.Messages
	}
	fmt.Fprintf(&b, "%-34s %12d %14d\n", "TOTAL", tr, tm)
	return b.String()
}
