package arblist

import (
	"math"
	"math/rand"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/workload"
)

// TestListCoverageOuterLoopFamilies runs the coverage checks over the
// instances TestDifferentialOuterLoop (differential_test.go) draws: the
// same generator and seed 20260730, final exponent 0.2, p = 4, 5 and
// FastK4. That test compares listings, and every engine returns the
// input graph's own listing, so it cannot fail for a pass that misses a
// clique. This one replays core.ListCliques's outer loop with the same
// per-iteration parameters, checks each LIST run with checkListCoverage
// and the final broadcast phase with checkBroadcastCoverage: every Kp of
// the input is known in full by some node.
func TestListCoverageOuterLoopFamilies(t *testing.T) {
	const finalExponent = 0.2
	trials := 2
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(20260730))
	forced, lists, cliques := 0, 0, 0
	for _, family := range workload.Families() {
		for trial := 0; trial < trials; trial++ {
			n := 80 + rng.Intn(60)
			seed := rng.Int63n(1 << 30)
			inst, err := workload.Generate(workload.DefaultSpec(family, n, seed))
			if err != nil {
				t.Fatal(err)
			}
			g := inst.G
			finalThr := int(math.Ceil(math.Pow(float64(n), finalExponent)))
			if g.Degeneracy().Degeneracy <= finalThr {
				continue // below the cutoff: no outer iteration runs
			}
			forced++
			for _, run := range []struct {
				p    int
				fast bool
			}{{4, false}, {5, false}, {4, true}} {
				cur := g
				arbBound := cur.Degeneracy().Degeneracy
				lg := congest.Log2Ceil(n)
				for iter := 0; iter < int(lg)+4 && cur.M() > 0 && arbBound > finalThr; iter++ {
					prm := Params{
						P:                run.p,
						ClusterThreshold: max(arbBound/int(2*lg), 1),
						FastK4:           run.fast,
						Seed:             seed + int64(iter)*7_777_777,
						Paranoid:         true,
					}
					var ledger congest.Ledger
					res, err := List(cur, prm, congest.UnitCosts(), &ledger)
					if err != nil {
						t.Fatalf("%s n=%d seed=%d p=%d fast=%v iteration %d: %v", family, n, seed, run.p, run.fast, iter, err)
					}
					checkListCoverage(t, cur, prm, res)
					lists++
					cliques += len(cur.ListCliques(run.p))
					if cur, err = res.Es.Graph(n); err != nil {
						t.Fatal(err)
					}
					newBound := cur.Degeneracy().Degeneracy
					if newBound >= arbBound {
						break
					}
					arbBound = newBound
				}
				if cur.M() > 0 {
					checkBroadcastCoverage(t, cur, run.p)
				}
			}
		}
	}
	t.Logf("%d of %d graphs ran the outer loop: %d LIST runs checked over %d Kp", forced, len(workload.Families())*trials, lists, cliques)
	if want := len(workload.Families()) * trials / 2; forced < want {
		t.Fatalf("only %d graphs were above the cutoff, want at least %d", forced, want)
	}
}
