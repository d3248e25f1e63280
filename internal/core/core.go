// Package core implements the paper's headline algorithms: Theorem 1.1
// (Kp-listing in CONGEST in Õ(n^{3/4} + n^{p/(p+2)}) rounds for all p ≥ 4,
// §2.2's outer arboricity-halving iteration over Algorithm LIST) and
// Theorem 1.2 (K4-listing in Õ(n^{2/3}) rounds, the §3 variant).
package core

import (
	"context"
	"fmt"
	"math"

	"kplist/internal/arblist"
	"kplist/internal/baseline"
	"kplist/internal/congest"
	"kplist/internal/graph"
)

// Params configures a Theorem 1.1 / 1.2 run.
type Params struct {
	// Ctx, when non-nil, is checked between engine rounds — at every
	// outer halving iteration, every ARB-LIST pass inside it, and before
	// the final broadcast phase — so a cancelled run stops burning CPU
	// within one round of work. nil means no cancellation.
	Ctx context.Context
	// P is the clique size, ≥ 4 (use sparselist.CongestedClique for p=3 in
	// the congested clique, or the broadcast lister in CONGEST).
	P int
	// FastK4 selects the Theorem 1.2 variant (§3); requires P == 4.
	FastK4 bool
	// FinalExponent is the δ at which the outer loop stops and the
	// remaining low-arboricity graph is broadcast-listed: the paper's
	// max(3/4, p/(p+2)) (or 2/3 under FastK4). 0 derives it; explicit
	// values let experiments sweep the cutoff.
	FinalExponent float64
	// Seed drives all randomness.
	Seed int64
	// Paranoid enables invariant checks in every pass.
	Paranoid bool
	// MaxOuter caps the outer halving loop; 0 means log2(n)+4.
	MaxOuter int
	// PaperBadThreshold passes through to ARB-LIST.
	PaperBadThreshold bool
	// ClusterThreshold, when positive, fixes the expander-decomposition
	// peel threshold instead of the paper's A/(2·log n) derivation. At
	// practical n the derived threshold is a small constant, which makes
	// every dense component one all-covering cluster; experiments set an
	// explicit threshold to exercise the heavy/light machinery (DESIGN.md
	// substitution 3).
	ClusterThreshold int
	// Workers bounds the host goroutines simulating parallel per-cluster
	// phases (threaded through to ARB-LIST). 0 means GOMAXPROCS, 1 forces
	// the sequential loop; the output and the charged bill are identical
	// for every value.
	Workers int
}

func (p Params) finalExponent() float64 {
	if p.FinalExponent > 0 {
		return p.FinalExponent
	}
	if p.FastK4 {
		return 2.0 / 3
	}
	e := float64(p.P) / float64(p.P+2)
	if e < 0.75 {
		e = 0.75
	}
	return e
}

// Result is the outcome of a full Kp-listing run.
type Result struct {
	// Cliques holds every Kp instance of the input graph, each once: the
	// phases only bill, and the listing is enumerated once on the input
	// graph's kernel. Cliques() sorts it.
	Cliques *graph.CliqueBag
	// OuterIterations counts LIST invocations (the §2.2 halving ladder).
	OuterIterations int
	// ArboricityLadder traces the orientation out-degree bound before each
	// outer iteration and before the final phase.
	ArboricityLadder []int
	// FinalEdges is the number of edges handled by the final broadcast
	// phase.
	FinalEdges int
	// ListResults holds the per-iteration LIST outcomes for experiments.
	ListResults []*arblist.ListResult
}

// ListCliques runs the full pipeline of Theorem 1.1 (or Theorem 1.2 when
// prm.FastK4) on g, charging every phase to the ledger. Every Kp is known
// in full by some node once the phases are charged — the pass coverage
// tests in arblist, sparselist and baseline check it — so the returned
// bag is g's listing, visited once on g's kernel.
func ListCliques(g *graph.Graph, prm Params, cm congest.CostModel, ledger *congest.Ledger) (*Result, error) {
	if prm.P < 4 {
		return nil, fmt.Errorf("core: p=%d < 4 (Theorem 1.1 covers p ≥ 4)", prm.P)
	}
	if prm.FastK4 && prm.P != 4 {
		return nil, fmt.Errorf("core: FastK4 requires p=4, got p=%d", prm.P)
	}
	n := g.N()
	if n == 0 {
		return &Result{Cliques: graph.NewCliqueBag(prm.P)}, nil
	}
	finalThr := int(math.Ceil(math.Pow(float64(n), prm.finalExponent())))
	maxOuter := prm.MaxOuter
	if maxOuter <= 0 {
		maxOuter = int(congest.Log2Ceil(n)) + 4
	}

	// cur is the working graph, and its degeneracy (memoized on it) the
	// certified out-degree bound each outer iteration halves: the paper's
	// n^{d_k}. Its edge list is built only when an iteration needs it, and
	// each iteration's leftover graph serves both the next bound and the
	// final phase.
	out := &Result{Cliques: graph.NewCliqueBag(prm.P)}
	cur := g
	arbBound := cur.Degeneracy().Degeneracy
	for iter := 0; iter < maxOuter && cur.M() > 0 && arbBound > finalThr; iter++ {
		if err := congest.CtxErr(prm.Ctx); err != nil {
			return nil, err
		}
		out.ArboricityLadder = append(out.ArboricityLadder, arbBound)
		lg := congest.Log2Ceil(n)
		threshold := arbBound / int(2*lg)
		if prm.ClusterThreshold > 0 {
			threshold = prm.ClusterThreshold
		}
		if threshold < 1 {
			threshold = 1
		}
		res, err := arblist.List(cur, arblist.Params{
			Ctx:               prm.Ctx,
			P:                 prm.P,
			ClusterThreshold:  threshold,
			FastK4:            prm.FastK4,
			Seed:              prm.Seed + int64(iter)*7_777_777,
			Paranoid:          prm.Paranoid,
			PaperBadThreshold: prm.PaperBadThreshold,
			Workers:           prm.Workers,
		}, cm, ledger)
		if err != nil {
			return nil, fmt.Errorf("core: outer iteration %d: %w", iter, err)
		}
		out.ListResults = append(out.ListResults, res)
		out.OuterIterations++
		if cur, err = res.Es.Graph(n); err != nil {
			return nil, err
		}
		newBound := cur.Degeneracy().Degeneracy
		if newBound >= arbBound {
			// No sparsification progress; the final phase handles the rest
			// at its (honest) broadcast price.
			arbBound = newBound
			break
		}
		arbBound = newBound
	}

	// Final phase (§2.2): the remaining graph has low arboricity; every
	// node broadcasts its outgoing edges and lists locally. Only the bill
	// depends on the leftover graph; the listing is g's.
	out.ArboricityLadder = append(out.ArboricityLadder, arbBound)
	out.FinalEdges = cur.M()
	if err := congest.CtxErr(prm.Ctx); err != nil {
		return nil, err
	}
	if cur.M() > 0 {
		if err := baseline.BroadcastList(cur, prm.P, cm, ledger); err != nil {
			return nil, fmt.Errorf("core: final phase: %w", err)
		}
	}
	g.VisitCliques(prm.P, out.Cliques.Add)
	return out, nil
}
