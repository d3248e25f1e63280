package bench

import (
	"math"
	"strings"
	"testing"

	"kplist/internal/workload"
)

func TestFitExponentExact(t *testing.T) {
	// Perfect power law rounds = 3·x².
	s := Series{XLabel: "n"}
	for _, x := range []float64{10, 20, 40, 80} {
		s.Points = append(s.Points, Point{X: x, Rounds: int64(3 * x * x)})
	}
	alpha, r2 := s.FitExponent()
	if math.Abs(alpha-2) > 0.01 {
		t.Errorf("alpha = %v, want 2", alpha)
	}
	if r2 < 0.999 {
		t.Errorf("R² = %v, want ≈1", r2)
	}
}

func TestFitExponentDegenerate(t *testing.T) {
	s := Series{}
	if a, r := s.FitExponent(); a != 0 || r != 0 {
		t.Error("empty series should fit (0,0)")
	}
	s.Points = []Point{{X: 1, Rounds: 1}}
	if a, r := s.FitExponent(); a != 0 || r != 0 {
		t.Error("single point should fit (0,0)")
	}
	s.Points = []Point{{X: -1, Rounds: 5}, {X: 0, Rounds: 5}}
	if a, r := s.FitExponent(); a != 0 || r != 0 {
		t.Error("non-positive X points should be skipped")
	}
}

func TestTableRendering(t *testing.T) {
	s := Series{Name: "demo", XLabel: "n", Expected: 0.75}
	s.Points = append(s.Points, Point{X: 10, Rounds: 100, Messages: 1000, Meta: map[string]float64{"k": 1}})
	s.Points = append(s.Points, Point{X: 20, Rounds: 170, Messages: 2000, Meta: map[string]float64{"k": 2}})
	out := s.Table()
	for _, want := range []string{"demo", "rounds", "messages", "fit:", "reference exponent 0.750", "k"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	all := RenderAll([]Series{s, s})
	if strings.Count(all, "demo") != 2 {
		t.Error("RenderAll should render each series")
	}
}

// The E-runner smoke tests use tiny sizes: they verify the runners work
// end-to-end and produce plausible structure; the real sweeps live in
// cmd/benchrunner and the root bench_test.go. Under -short the largest
// series point and the repeat-averaging are dropped so the whole package
// stays in CI's minute budget.
func tinyConfig() Config {
	cfg := Config{
		Sizes:         []int{256, 384, 512},
		Density:       0.35,
		EdgeCounts:    []int{200, 800, 2000},
		CCN:           96,
		Ps:            []int{4, 5},
		Seed:          7,
		WorkloadSizes: []int{64, 96, 128},
	}
	if testing.Short() {
		cfg.Sizes = cfg.Sizes[:2]
		cfg.EdgeCounts = cfg.EdgeCounts[:2]
		cfg.WorkloadSizes = cfg.WorkloadSizes[:2]
		cfg.Repeats = 1
	}
	return cfg
}

func TestE1Smoke(t *testing.T) {
	cfg := tinyConfig()
	series, err := E1Theorem11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want 2 series (p=4,5), got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(cfg.Sizes) {
			t.Errorf("%s: %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Rounds <= 0 {
				t.Errorf("%s: zero rounds at n=%v", s.Name, p.X)
			}
		}
		// Rounds must grow with n.
		if s.Points[len(s.Points)-1].Rounds <= s.Points[0].Rounds {
			t.Errorf("%s: rounds did not grow with n", s.Name)
		}
	}
}

func TestE2Smoke(t *testing.T) {
	series, err := E2FastK4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want fast and general series")
	}
	// Both modes list the same cliques at each n.
	for i := range series[0].Points {
		if series[0].Points[i].Meta["cliques"] != series[1].Points[i].Meta["cliques"] {
			t.Error("fast and general K4 disagree on clique count")
		}
	}
}

func TestE3Smoke(t *testing.T) {
	series, err := E3CongestedClique(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("%s: no points", s.Name)
		}
		last := s.Points[len(s.Points)-1]
		first := s.Points[0]
		if last.Rounds < first.Rounds {
			t.Errorf("%s: rounds decreased with m", s.Name)
		}
	}
}

func TestE4Smoke(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sizes = []int{48, 72}
	series, err := E4Comparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("want 4 comparison series, got %d", len(series))
	}
	// All K4 algorithms agree on clique counts.
	for i := range series[0].Points {
		ours := series[0].Points[i].Meta["cliques"]
		eden := series[2].Points[i].Meta["cliques"]
		bc := series[3].Points[i].Meta["cliques"]
		if ours != eden || ours != bc {
			t.Errorf("K4 counts disagree at point %d: ours=%v eden=%v bcast=%v", i, ours, eden, bc)
		}
	}
}

func TestE5Smoke(t *testing.T) {
	series, err := E5LowerBoundGap(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Meta["gap"] <= 0 {
				t.Errorf("%s: non-positive LB gap", s.Name)
			}
		}
	}
}

func TestE6Smoke(t *testing.T) {
	series, err := E6IterativeDecay(96, 0.4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want Er-decay and ladder series")
	}
	decay := series[0]
	for i := 1; i < len(decay.Points); i++ {
		if decay.Points[i].Rounds >= decay.Points[i-1].Rounds {
			t.Errorf("|Er| did not decay at pass %d: %v", i, decay.Points)
		}
	}
}

func TestE7Smoke(t *testing.T) {
	series, err := E7Ablations(96, 0.4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("want 5 ablation series, got %d", len(series))
	}
	// The heavy-threshold sweep must have populated census metadata.
	sweep := series[4]
	for _, p := range sweep.Points {
		if p.Meta["heavy"]+p.Meta["light"] == 0 {
			t.Errorf("threshold %v classified nobody", p.X)
		}
	}
}

func TestE9WorkloadFamiliesSmoke(t *testing.T) {
	cfg := tinyConfig()
	series, err := E9WorkloadFamilies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(workload.Families()) {
		t.Fatalf("want one series per family, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(cfg.workloadSizes()) {
			t.Errorf("%s: %d points, want %d", s.Name, len(s.Points), len(cfg.workloadSizes()))
		}
		for _, p := range s.Points {
			for _, key := range []string{"degeneracy", "m", "cliques"} {
				if _, ok := p.Meta[key]; !ok {
					t.Errorf("%s: missing census metadata %q at n=%v", s.Name, key, p.X)
				}
			}
		}
	}
}

func TestE10SessionAmortizationSmoke(t *testing.T) {
	series, err := E10SessionAmortization(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("want one amortization series, got %d", len(series))
	}
	for _, p := range series[0].Points {
		// Every repeated wave beyond the first must be a cache hit, so the
		// amortization factor equals the wave count.
		if p.Meta["amortization"] < 2 {
			t.Errorf("n=%v: amortization %.2f < 2 — cache not engaging", p.X, p.Meta["amortization"])
		}
		if p.Meta["hits"] == 0 {
			t.Errorf("n=%v: no cache hits recorded", p.X)
		}
	}
}

func TestE8Smoke(t *testing.T) {
	series, err := E8CountingVsListing(80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want counting and listing series, got %d", len(series))
	}
	counting, listing := series[0], series[1]
	// Counting rounds are density-independent; listing rounds grow with m.
	first, last := counting.Points[0].Rounds, counting.Points[len(counting.Points)-1].Rounds
	if first != last {
		t.Errorf("algebraic counting rounds should not depend on m: %d vs %d", first, last)
	}
	if listing.Points[len(listing.Points)-1].Rounds <= listing.Points[0].Rounds {
		t.Error("listing rounds should grow with m")
	}
	// At the densest point, counting must win (the §5 claim).
	if counting.Points[len(counting.Points)-1].Rounds >= listing.Points[len(listing.Points)-1].Rounds {
		t.Error("dense point: counting should beat listing")
	}
}
