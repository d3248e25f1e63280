package workload

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"kplist/internal/graph"
)

func TestFamiliesRegistryComplete(t *testing.T) {
	fams := Families()
	if len(fams) < 5 {
		t.Fatalf("want ≥ 5 families beyond G(n,p), got %d", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f] {
			t.Errorf("duplicate family %q", f)
		}
		seen[f] = true
		if _, err := Generate(DefaultSpec(f, 40, 1)); err != nil {
			t.Errorf("family %q does not generate: %v", f, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, f := range Families() {
		a := MustGenerate(DefaultSpec(f, 80, 42))
		b := MustGenerate(DefaultSpec(f, 80, 42))
		if !reflect.DeepEqual(a.G.Edges(), b.G.Edges()) {
			t.Errorf("%s: same seed produced different graphs", f)
		}
		c := MustGenerate(DefaultSpec(f, 80, 43))
		if f != FamilyGrid && reflect.DeepEqual(a.G.Edges(), c.G.Edges()) {
			// Grid is fully deterministic; every other family must react
			// to the seed (at n=80 a collision is essentially impossible).
			t.Errorf("%s: different seeds produced identical graphs", f)
		}
	}
}

func TestAdvertisedPropertiesHold(t *testing.T) {
	for _, f := range Families() {
		for _, seed := range []int64{1, 7, 99} {
			inst := MustGenerate(DefaultSpec(f, 96, seed))
			if err := inst.Check(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestPlantedCliquesExposed(t *testing.T) {
	spec := DefaultSpec(FamilyPlantedClique, 120, 5)
	spec.CliqueSize = 4
	spec.CliqueCount = 3
	inst := MustGenerate(spec)
	if len(inst.Props.Planted) != 3 {
		t.Fatalf("want 3 planted cliques, got %d", len(inst.Props.Planted))
	}
	// Every planted K4 must appear in the sequential enumeration.
	got := inst.G.ListCliques(4)
	for _, c := range inst.Props.Planted {
		if _, ok := slices.BinarySearchFunc(got, c, slices.Compare); !ok {
			t.Errorf("planted clique %v not listed by ground truth", c)
		}
	}
}

func TestDegeneracyBoundsAreTight(t *testing.T) {
	ba := MustGenerate(DefaultSpec(FamilyBarabasiAlbert, 200, 3))
	if d := ba.G.Degeneracy().Degeneracy; d > ba.Props.DegeneracyBound {
		t.Errorf("BA degeneracy %d > bound %d", d, ba.Props.DegeneracyBound)
	}
	spec := DefaultSpec(FamilyBoundedDegeneracy, 200, 3)
	spec.Degeneracy = 2
	bd := MustGenerate(spec)
	if d := bd.G.Degeneracy().Degeneracy; d > 2 {
		t.Errorf("bounded-degeneracy d=2 produced degeneracy %d", d)
	}
	grid := MustGenerate(DefaultSpec(FamilyGrid, 100, 0))
	if got := grid.G.CountCliques(3); got != 0 {
		t.Errorf("plain grid has %d triangles", got)
	}
	diag := Spec{Family: FamilyGrid, N: 100, Diagonal: true}
	dg := MustGenerate(diag)
	if got := dg.G.CountCliques(3); got == 0 {
		t.Error("diagonal grid should contain triangles")
	}
	if d := dg.G.Degeneracy().Degeneracy; d > 3 {
		t.Errorf("diagonal grid degeneracy %d > 3", d)
	}
}

func TestStochasticBlockShape(t *testing.T) {
	spec := DefaultSpec(FamilyStochasticBlock, 120, 9)
	inst := MustGenerate(spec)
	// With pIn ≫ pOut the within-block edge count must dominate.
	blocks := inst.Spec.Blocks
	bounds := make([]int, blocks+1)
	for b := 0; b <= blocks; b++ {
		bounds[b] = b * 120 / blocks
	}
	blockOf := func(v graph.V) int {
		for b := 0; b < blocks; b++ {
			if int(v) < bounds[b+1] {
				return b
			}
		}
		return blocks - 1
	}
	in, out := 0, 0
	for _, e := range inst.G.Edges() {
		if blockOf(e.U) == blockOf(e.V) {
			in++
		} else {
			out++
		}
	}
	if in <= out {
		t.Errorf("SBM pIn=%v pOut=%v: within %d ≤ across %d", inst.Spec.PIn, inst.Spec.POut, in, out)
	}
}

func TestKroneckerSkew(t *testing.T) {
	inst := MustGenerate(DefaultSpec(FamilyKronecker, 256, 11))
	if inst.G.M() == 0 {
		t.Fatal("kronecker generated no edges")
	}
	// R-MAT skew: the max degree should far exceed the average.
	if float64(inst.G.MaxDegree()) < 2*inst.G.AvgDegree() {
		t.Errorf("expected heavy-tailed degrees: max %d vs avg %.1f",
			inst.G.MaxDegree(), inst.G.AvgDegree())
	}
}

func TestCornerSizes(t *testing.T) {
	for _, f := range Families() {
		for _, n := range []int{0, 1, 2} {
			inst, err := Generate(DefaultSpec(f, n, 1))
			if err != nil {
				// planted-clique cannot fit its default clique in n < k.
				if f == FamilyPlantedClique {
					continue
				}
				t.Errorf("%s n=%d: %v", f, n, err)
				continue
			}
			if inst.G.N() != n {
				t.Errorf("%s n=%d: graph has %d vertices", f, n, inst.G.N())
			}
			if err := inst.Check(); err != nil {
				t.Errorf("%s n=%d: %v", f, n, err)
			}
		}
	}
}

func TestInvalidSpecs(t *testing.T) {
	cases := []Spec{
		{Family: "no-such-family", N: 10},
		{Family: FamilyPlantedClique, N: 10, CliqueSize: 4, CliqueCount: 5},
		{Family: FamilyBipartite, N: 10, Background: 1.5},
		{Family: FamilyStochasticBlock, N: 10, PIn: math.NaN()},
		{Family: FamilyBarabasiAlbert, N: -1},
	}
	for _, spec := range cases {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
}

func TestProbabilityExtremes(t *testing.T) {
	// p = 1 bipartite is complete bipartite; p → 0 via a tiny epsilon and
	// the planted family with probability-1 background is a complete graph.
	spec := Spec{Family: FamilyBipartite, N: 10, Background: 1}
	inst := MustGenerate(spec)
	if inst.G.M() != 5*5 {
		t.Errorf("complete bipartite K_{5,5}: want 25 edges, got %d", inst.G.M())
	}
	if err := inst.Check(); err != nil {
		t.Error(err)
	}
	full := Spec{Family: FamilyPlantedClique, N: 8, CliqueSize: 2, CliqueCount: 1, Background: 1}
	fi := MustGenerate(full)
	if fi.G.M() != 8*7/2 {
		t.Errorf("background 1: want complete graph, got m=%d", fi.G.M())
	}
	// Negative probability = explicit 0: the planted edges and nothing else.
	pure := Spec{Family: FamilyPlantedClique, N: 20, CliqueSize: 4, CliqueCount: 2, Background: -0.5}
	pi := MustGenerate(pure)
	if pi.Spec.Background != -1 {
		t.Errorf("negative Background should normalize to the canonical -1, got %v", pi.Spec.Background)
	}
	if want := 2 * 4 * 3 / 2; pi.G.M() != want {
		t.Errorf("noise-free planting: want exactly %d edges, got %d", want, pi.G.M())
	}
	empty := Spec{Family: FamilyStochasticBlock, N: 20, PIn: -1, POut: -1}
	if ei := MustGenerate(empty); ei.G.M() != 0 {
		t.Errorf("pIn=pOut=0 should yield the empty graph, got m=%d", ei.G.M())
	}
}
