package bench

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"kplist/internal/graph"
	"kplist/internal/workload"
)

func TestE12Deterministic(t *testing.T) {
	cfg := Config{Seed: 1, DynN: 96}
	a, err := E12IncrementalChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E12IncrementalChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if RenderAll(a) != RenderAll(b) {
		t.Fatal("E12 output not deterministic under seed")
	}
	if len(a) != 2 {
		t.Fatalf("E12 produced %d series", len(a))
	}
	out := RenderAll(a)
	for _, want := range []string{"incremental churn", "rebuild-trigger", "dK4add", "rebuild"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E12 output missing %q:\n%s", want, out)
		}
	}
	// Churn points carry real deltas; adversarial points carry the -1
	// sentinel and the rebuild flag.
	for _, p := range a[0].Points[1:] {
		if p.Meta["rebuild"] != 0 || p.Meta["dK4add"] < 0 {
			t.Fatalf("churn point %+v not incremental", p)
		}
	}
	for _, p := range a[1].Points[1:] {
		if p.Meta["rebuild"] != 1 || p.Meta["dK4add"] != -1 {
			t.Fatalf("adversarial point %+v not a rebuild", p)
		}
	}
}

// TestE12IncrementalSpeedup checks the work behind E12's speedup claim
// on G(256, 0.4) with p = 4: across five 1%-of-edges churn batches the
// incremental engine builds no enumeration kernel, while the forced
// full-rebuild fallback builds one per batch, and both keep the same
// count. It logs the median wall-clock ratio but asserts none — a timing
// ratio fails on host load, not on code; BenchmarkDynGraph* time it.
// Skipped under -short: the five rebuilds re-list every K4.
func TestE12IncrementalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("five full K4 re-listings; skipped in -short")
	}
	const n, p = 256, 4
	g := graph.ErdosRenyi(n, 0.4, rand.New(rand.NewSource(1)))
	tr, err := workload.GenerateTrace(g, workload.TraceSpec{
		Schedule:  workload.ScheduleChurn,
		Batches:   5,
		BatchSize: max(1, g.M()/100),
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}

	inc := graph.NewDynGraph(g, graph.DynConfig{}, p)
	// Forcing RebuildMinBatch below any batch size makes every apply take
	// the full-rebuild path on an otherwise identical engine.
	reb := graph.NewDynGraph(g, graph.DynConfig{RebuildFraction: 1e-12, RebuildMinBatch: -1}, p)

	var incTimes, rebTimes []time.Duration
	var incBuilds, rebBuilds int64
	for i, batch := range tr.Batches {
		builds := graph.KernelBuilds()
		start := time.Now()
		di, err := inc.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		incTimes = append(incTimes, time.Since(start))
		incBuilds += graph.KernelBuilds() - builds
		builds = graph.KernelBuilds()
		start = time.Now()
		dr, err := reb.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		rebTimes = append(rebTimes, time.Since(start))
		rebBuilds += graph.KernelBuilds() - builds
		if di.Rebuilt || !dr.Rebuilt {
			t.Fatalf("batch %d: modes wrong (inc rebuilt=%v, reb rebuilt=%v)", i, di.Rebuilt, dr.Rebuilt)
		}
		// Both engines agree exactly after every batch.
		ci, _ := inc.Count(p)
		cr, _ := reb.Count(p)
		if ci != cr {
			t.Fatalf("batch %d: incremental K4 count %d != rebuild %d", i, ci, cr)
		}
	}
	incMed, rebMed := median(incTimes), median(rebTimes)
	t.Logf("incremental median %v, rebuild median %v, speedup %.1f×", incMed, rebMed, float64(rebMed)/float64(incMed))
	if batches := int64(len(tr.Batches)); incBuilds != 0 || rebBuilds != batches {
		t.Fatalf("kernel builds over %d batches: incremental %d (want 0), rebuild %d (want %d)",
			batches, incBuilds, rebBuilds, batches)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
