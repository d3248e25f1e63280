package kplist

import (
	"slices"
	"strings"
	"testing"
)

func TestDetectCONGEST(t *testing.T) {
	with := Complete(10)
	found, res, err := DetectCONGEST(with, 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("K10 contains K5")
	}
	if len(res.Cliques) != 1 {
		t.Errorf("witness count = %d, want 1", len(res.Cliques))
	}
	without := ErdosRenyi(60, 0.05, 2)
	found, res, err = DetectCONGEST(without, 6, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if found && without.CountCliques(6) == 0 {
		t.Error("false positive detection")
	}
	if !found && len(res.Cliques) != 0 {
		t.Error("no witness expected")
	}
}

func TestCountCONGEST(t *testing.T) {
	g := Complete(8)
	count, res, err := CountCONGEST(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if count != 70 {
		t.Errorf("C(8,4) = 70, got %d", count)
	}
	if res.Rounds <= 0 {
		t.Error("no bill")
	}
}

func TestCountTrianglesCC(t *testing.T) {
	g := ErdosRenyi(150, 0.3, 4)
	count, res, err := CountTrianglesCC(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if count != g.CountCliques(3) {
		t.Errorf("algebraic count %d, enumeration %d", count, g.CountCliques(3))
	}
	if res.Rounds <= 0 {
		t.Error("no bill")
	}
	// §5: on dense graphs the counter is cheaper than the lister.
	dense := ErdosRenyi(150, 0.8, 5)
	_, cres, err := CountTrianglesCC(dense, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ListCongestedClique(dense, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Rounds >= lres.Rounds {
		t.Errorf("dense: counting (%d) should beat listing (%d)", cres.Rounds, lres.Rounds)
	}
}

func TestDetectCongestedClique(t *testing.T) {
	g, _ := PlantedCliques(80, 5, 1, 0.02, 6)
	found, res, err := DetectCongestedClique(g, 5, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !found || len(res.Cliques) != 1 {
		t.Error("planted K5 should be detected with one witness")
	}
}

// TestDetectWitnessIsCopied: both detectors return their witness as a
// copy, the first clique of the listing, so the result holds neither the
// listing's []Clique nor its shared vertex array.
func TestDetectWitnessIsCopied(t *testing.T) {
	g := Complete(7)
	want := GroundTruth(g, 4)[0]
	for name, detect := range map[string]func(*Graph, int, Options) (bool, *Result, error){
		"congest":          DetectCONGEST,
		"congested-clique": DetectCongestedClique,
	} {
		found, res, err := detect(g, 4, Options{Seed: 1})
		if err != nil || !found {
			t.Fatalf("%s: found=%v err=%v", name, found, err)
		}
		if len(res.Cliques) != 1 || cap(res.Cliques) != 1 || !slices.Equal(res.Cliques[0], want) ||
			cap(res.Cliques[0]) != 4 {
			t.Errorf("%s: witness %v (cap %d), want the one clique %v", name, res.Cliques, cap(res.Cliques), want)
		}
	}
	listing := GroundTruth(g, 4)
	if w := witness(listing); &w[0][0] == &listing[0][0] {
		t.Error("witness shares the listing's vertex array")
	}
}

func TestResultString(t *testing.T) {
	g := Complete(6)
	res, err := ListBroadcast(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"cliques=15", "rounds=", "messages="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
