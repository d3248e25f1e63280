package bench

import (
	"context"
	"fmt"
	"strings"

	"kplist"
	"kplist/internal/workload"
)

// E15 measures the approximate query tier (DESIGN.md §14): for each
// (n, p) cell of a dense stochastic-block sweep, the four costs a planner
// chooses between — the exact kernel count, the from-scratch HLL sketch
// inscription, an estimate served from the maintained (warm) sketch, and
// a fixed-size seeded edge-sampling estimate. Everything is wall-clock,
// so E15 is never golden-pinned; `benchrunner -sketchbench
// BENCH_sketch.json` APPENDS each run to the committed trajectory like
// the kernel, store, and cluster sweeps.

// SketchMeasurement is one (family, n, p) cell of the estimator sweep.
type SketchMeasurement struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	P      int    `json:"p"`
	// ExactNs is the streaming exact kernel count (the planner's
	// "budget permitting" path).
	ExactNs int64 `json:"exactNs"`
	// SketchBuildNs is a from-scratch CliqueHLL inscription of the whole
	// distinct-clique set on a cold session — the cost mode=estimate pays
	// once before the maintained sketch starts answering for free.
	SketchBuildNs int64 `json:"sketchBuildNs"`
	// SketchQueryNs is an estimate served from the warm maintained sketch
	// (the steady-state mode=estimate cost).
	SketchQueryNs int64 `json:"sketchQueryNs"`
	// SampleNs is a seeded edge-sampling estimate at a fixed sample count
	// (the planner's fallback when no sketch is fresh and exact is over
	// budget).
	SampleNs int64 `json:"sampleNs"`
	// Samples is the fixed per-estimate sample count behind SampleNs.
	Samples int `json:"samples"`
	// ExactCount pins the ground truth; SketchEstimate and SampleEstimate
	// record the estimates so a run documents its accuracy, not just its
	// speed (the statistical guarantees are tested in internal/sketch).
	ExactCount     int64   `json:"exactCount"`
	SketchEstimate float64 `json:"sketchEstimate"`
	SampleEstimate float64 `json:"sampleEstimate"`
}

// SketchRun is one benchrunner invocation's worth of estimator cells —
// one point on the BENCH_sketch.json trajectory.
type SketchRun struct {
	RunHeader
	Measurements []SketchMeasurement `json:"cells"`
}

// bestOfPerOp times iters back-to-back calls of fn per rep and returns
// the best rep's per-call nanoseconds. The sketch cells are µs-scale (a
// warm sketch read is ~10µs), where a single call's best-of still
// straddles scheduler slices; batching widens the timed unit to ms scale
// so the per-op figure averages over the noise instead of sampling it.
func bestOfPerOp(reps, iters int, fn func() error) int64 {
	best := bestOf(reps, func() error {
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return best.Nanoseconds() / int64(iters)
}

// SketchBench runs the estimator sweep on dense stochastic-block graphs
// (the regime where the approximate tier earns its keep: the exact
// kernel's priced cost grows with m·d^(p−2) while the sample and warm
// sketch paths stay flat).
func SketchBench(seed int64, quick bool) (*SketchRun, error) {
	reps := 5
	sizes := []int{256, 384}
	samples := 8192
	if quick {
		reps = 3
		sizes = []int{128, 192}
		samples = 2048
	}
	const family = workload.FamilyStochasticBlock
	ctx := context.Background()
	run := &SketchRun{RunHeader: newRunHeader(seed, quick)}
	for _, n := range sizes {
		inst, err := workload.Generate(workload.DefaultSpec(family, n, seed))
		if err != nil {
			return nil, fmt.Errorf("sketchbench n=%d: %w", n, err)
		}
		for _, p := range []int{3, 4} {
			m := SketchMeasurement{Family: family, N: n, M: inst.G.M(), P: p, Samples: samples}

			// Exact kernel count: Estimate's exact path re-counts every
			// call (no memo), so a warm session times the kernel itself.
			exactSess := kplist.NewSession(inst.G, kplist.SessionConfig{})
			exact, err := exactSess.Estimate(ctx, kplist.EstimateRequest{P: p, Method: kplist.EstimateExact, Seed: seed})
			if err != nil {
				exactSess.Close()
				return nil, fmt.Errorf("sketchbench n=%d p=%d exact: %w", n, p, err)
			}
			m.ExactCount = int64(exact.Estimate)
			m.ExactNs = bestOfPerOp(reps, 16, func() error {
				_, err := exactSess.Estimate(ctx, kplist.EstimateRequest{P: p, Method: kplist.EstimateExact, Seed: seed})
				return err
			})
			exactSess.Close()

			// Cold sketch build: a fresh session per call, or the maintained
			// sketch memo would serve every call after the first for free.
			m.SketchBuildNs = bestOfPerOp(reps, 8, func() error {
				sess := kplist.NewSession(inst.G, kplist.SessionConfig{})
				defer sess.Close()
				res, err := sess.Estimate(ctx, kplist.EstimateRequest{P: p, Method: kplist.EstimateHLL, Seed: seed})
				if err == nil {
					m.SketchEstimate = res.Estimate
				}
				return err
			})

			// Warm sketch estimate: one session builds once, then every
			// further estimate reads the published registers.
			warmSess := kplist.NewSession(inst.G, kplist.SessionConfig{})
			if _, err := warmSess.Estimate(ctx, kplist.EstimateRequest{P: p, Method: kplist.EstimateHLL, Seed: seed}); err != nil {
				warmSess.Close()
				return nil, fmt.Errorf("sketchbench n=%d p=%d sketch warm: %w", n, p, err)
			}
			m.SketchQueryNs = bestOfPerOp(reps, 64, func() error {
				_, err := warmSess.Estimate(ctx, kplist.EstimateRequest{P: p, Method: kplist.EstimateHLL, Seed: seed})
				return err
			})

			// Edge sampling at a fixed sample count (deterministic cost and
			// replayable estimate: same seed, same answer).
			sample, err := warmSess.Estimate(ctx, kplist.EstimateRequest{
				P: p, Method: kplist.EstimateSample, Seed: seed, Samples: samples,
			})
			if err != nil {
				warmSess.Close()
				return nil, fmt.Errorf("sketchbench n=%d p=%d sample: %w", n, p, err)
			}
			m.SampleEstimate = sample.Estimate
			m.SampleNs = bestOfPerOp(reps, 4, func() error {
				_, err := warmSess.Estimate(ctx, kplist.EstimateRequest{
					P: p, Method: kplist.EstimateSample, Seed: seed, Samples: samples,
				})
				return err
			})
			warmSess.Close()

			run.Measurements = append(run.Measurements, m)
		}
	}
	return run, nil
}

// Table renders the run as an aligned text table (wall-clock —
// informational, never golden-pinned).
func (r *SketchRun) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# sketch: exact / HLL build / warm sketch / edge sampling (%s, GOMAXPROCS=%d, seed=%d)\n",
		r.GoVersion, r.GOMAXPROCS, r.Seed)
	fmt.Fprintf(&sb, "%18s %6s %8s %4s %12s %12s %12s %12s %10s %12s %12s\n",
		"family", "n", "m", "p", "exact-ns", "build-ns", "warm-ns", "sample-ns", "exact", "hll-est", "sample-est")
	for _, m := range r.Measurements {
		fmt.Fprintf(&sb, "%18s %6d %8d %4d %12d %12d %12d %12d %10d %12.1f %12.1f\n",
			m.Family, m.N, m.M, m.P, m.ExactNs, m.SketchBuildNs, m.SketchQueryNs, m.SampleNs,
			m.ExactCount, m.SketchEstimate, m.SampleEstimate)
	}
	return sb.String()
}

// Cells lists the exact, build, warm and sample legs of each (n, p) cell.
func (r *SketchRun) Cells() []Cell {
	var cells []Cell
	for _, m := range r.Measurements {
		base := fmt.Sprintf("/family=%s/n=%d/p=%d", m.Family, m.N, m.P)
		cells = append(cells,
			Cell{"SketchExact" + base, m.ExactNs},
			Cell{"SketchBuild" + base, m.SketchBuildNs},
			Cell{"SketchWarm" + base, m.SketchQueryNs},
			Cell{"SketchSample" + base, m.SampleNs})
	}
	return cells
}
