package baseline

import (
	"math/rand"
	"testing"

	"kplist/internal/congest"
	"kplist/internal/workload"
)

// TestEdenCoverageOuterLoopFamilies runs edenCoverage over the instances
// TestDifferentialOuterLoop (differential_test.go) draws — the same
// generator and seed 20260730, every drawn graph — with the parameters
// kplist's Eden engine passes. EdenK4List returns the input graph's own
// listing, so the differential suites cannot fail for a pass that misses
// a K4; this checks that every K4 is known in full by its cluster or by
// each member of the final broadcast.
func TestEdenCoverageOuterLoopFamilies(t *testing.T) {
	trials := 2
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(20260730))
	clustered, total := 0, 0
	for _, family := range workload.Families() {
		for trial := 0; trial < trials; trial++ {
			n := 80 + rng.Intn(60)
			seed := rng.Int63n(1 << 30)
			inst, err := workload.Generate(workload.DefaultSpec(family, n, seed))
			if err != nil {
				t.Fatal(err)
			}
			prm := EdenK4Params{Seed: seed}
			var ledger congest.Ledger
			if _, err := EdenK4List(inst.G, prm, congest.UnitCosts(), &ledger); err != nil {
				t.Fatalf("%s n=%d seed=%d: %v", family, n, seed, err)
			}
			for _, byCluster := range edenCoverage(t, inst.G, prm, &ledger) {
				total++
				if byCluster {
					clustered++
				}
			}
		}
	}
	t.Logf("%d K4 checked, %d of them covered by a cluster", total, clustered)
	if clustered == 0 {
		t.Fatal("no K4 was covered by a cluster: Eden's clusters never formed")
	}
}
