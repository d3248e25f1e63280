package bench

import (
	"fmt"
	"math/rand"

	"kplist/internal/graph"
	"kplist/internal/workload"
)

// E12 exercises the dynamic-graph subsystem (DESIGN.md §9): a churn
// schedule of 1%-of-edges mutation batches over a dense G(n, 0.4), with
// the incremental clique-delta engine maintaining the K3/K4 listings, and
// an adversarial rebuild-trigger schedule that forces the fallback path.
// Everything in the tables is a maintained census or a delta size — fully
// deterministic under cfg.Seed, so cmd/benchrunner pins E12 with a golden.
// The wall-clock speedup is timed by the BenchmarkDynGraph* benchmarks,
// never in the golden; TestE12IncrementalSpeedup checks the work behind
// it, kernel builds per batch.

// dynN returns the vertex count for the E12 graph.
func (c Config) dynN() int {
	if c.DynN > 0 {
		return c.DynN
	}
	return 256
}

// E12IncrementalChurn applies seeded mutation schedules to G(n, 0.4) and
// reports the maintained clique censuses and per-batch deltas.
func E12IncrementalChurn(cfg Config) ([]Series, error) {
	cfg = cfg.withDefaults()
	n := cfg.dynN()
	g := graph.ErdosRenyi(n, 0.4, rand.New(rand.NewSource(cfg.Seed)))

	var out []Series
	// Churn: batches of ~1% of the edges, patched incrementally.
	churn := Series{
		Name: fmt.Sprintf(
			"E12: incremental churn on G(%d,0.4) — maintained K4 (rounds col) / K3 (messages col) after each 1%%-of-edges batch",
			n),
		XLabel: "batch",
	}
	d := graph.NewDynGraph(g, graph.DynConfig{}, 3, 4)
	if err := appendSchedulePoints(&churn, d, g, workload.TraceSpec{
		Schedule:  workload.ScheduleChurn,
		Batches:   6,
		BatchSize: max(1, g.M()/100),
		Seed:      cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("E12 churn: %w", err)
	}
	st := d.Stats()
	if st.Rebuilds != 0 {
		return nil, fmt.Errorf("E12 churn: 1%% batches must stay incremental, got %d rebuilds", st.Rebuilds)
	}
	out = append(out, churn)

	// Adversarial: every batch sized past the density threshold, so the
	// engine must fall back to full rebuilds (delta columns read -1: the
	// fallback recomputes, it does not diff).
	adv := Series{
		Name:   fmt.Sprintf("E12: adversarial rebuild-trigger schedule on G(%d,0.4)", n),
		XLabel: "batch",
	}
	d2 := graph.NewDynGraph(g, graph.DynConfig{}, 3, 4)
	if err := appendSchedulePoints(&adv, d2, g, workload.TraceSpec{
		Schedule: workload.ScheduleRebuildTrigger,
		Batches:  4,
		Seed:     cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("E12 rebuild-trigger: %w", err)
	}
	st2 := d2.Stats()
	if st2.Incremental != 0 {
		return nil, fmt.Errorf("E12 rebuild-trigger: batches must rebuild, got %d incremental", st2.Incremental)
	}
	out = append(out, adv)
	return out, nil
}

// appendSchedulePoints generates the trace for spec against g, applies it
// batch by batch, and appends one point per batch: Rounds = maintained K4
// count, Messages = maintained K3 count, Meta = edges, per-batch K4 delta
// sizes (-1 under the rebuild fallback) and the fallback indicator. The
// maintained counts are verified against a from-scratch recount after the
// final batch — the experiment is its own differential check.
func appendSchedulePoints(s *Series, d *graph.DynGraph, g *graph.Graph, spec workload.TraceSpec) error {
	tr, err := workload.GenerateTrace(g, spec)
	if err != nil {
		return err
	}
	k4, _ := d.Count(4)
	k3, _ := d.Count(3)
	s.Points = append(s.Points, Point{
		X: 0, Rounds: k4, Messages: k3,
		Meta: map[string]float64{"m": float64(d.M()), "dK4add": 0, "dK4del": 0, "rebuild": 0},
	})
	for i, batch := range tr.Batches {
		delta, err := d.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		add, del := -1.0, -1.0
		rebuild := 1.0
		if !delta.Rebuilt {
			rebuild = 0
			for _, cd := range delta.Cliques {
				if cd.P == 4 {
					add, del = float64(len(cd.Added)), float64(len(cd.Removed))
				}
			}
		}
		k4, _ = d.Count(4)
		k3, _ = d.Count(3)
		s.Points = append(s.Points, Point{
			X: float64(i + 1), Rounds: k4, Messages: k3,
			Meta: map[string]float64{"m": float64(d.M()), "dK4add": add, "dK4del": del, "rebuild": rebuild},
		})
	}
	if got := d.Snapshot().CountCliques(4); got != k4 {
		return fmt.Errorf("maintained K4 count %d diverges from recount %d", k4, got)
	}
	return nil
}
