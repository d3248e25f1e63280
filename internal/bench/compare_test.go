package bench

import (
	"strings"
	"testing"
)

func synthHost() HostFingerprint {
	return HostFingerprint{CPU: "test-cpu", Cores: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
}

// synthKernelTrajectory builds runs whose single cell measures base ns
// plus the per-run deltas, all on the same host unless hosts overrides.
func synthKernelTrajectory(base int64, deltas []int64, hosts ...HostFingerprint) []Run {
	var runs []Run
	for i, d := range deltas {
		host := synthHost()
		if i < len(hosts) {
			host = hosts[i]
		}
		runs = append(runs, &KernelRun{
			RunHeader: synthHeader(host),
			Rows:      []KernelMeasurement{{Family: "sparse-gnp", N: 64, M: 500, P: 4, Workers: 1, Cliques: 7, NsPerOp: base + d}},
		})
	}
	return runs
}

func TestCompareClearRegression(t *testing.T) {
	// Stable history at ~1ms, newest run 50% slower: must regress.
	traj := synthKernelTrajectory(1_000_000, []int64{0, 5_000, -5_000, 500_000})
	r := Compare("kernel", traj, 0)
	if r.Skipped != "" {
		t.Fatalf("unexpected skip: %s", r.Skipped)
	}
	regs := r.Regressions()
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %d: %+v", len(regs), r.Cells)
	}
	if regs[0].Ratio < 1.4 || !strings.Contains(regs[0].Name, "sparse-gnp") {
		t.Errorf("bad verdict: %+v", regs[0])
	}
	if !strings.Contains(r.Table(), "REGRESSED") {
		t.Errorf("table should flag the cell:\n%s", r.Table())
	}
}

func TestCompareClearImprovement(t *testing.T) {
	traj := synthKernelTrajectory(1_000_000, []int64{0, 5_000, -5_000, -400_000})
	r := Compare("kernel", traj, 0)
	if len(r.Regressions()) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", r.Cells)
	}
	if !strings.Contains(r.Table(), "improved") {
		t.Errorf("table should note the improvement:\n%s", r.Table())
	}
}

func TestCompareWithinNoiseJitter(t *testing.T) {
	// Newest run 5% over the median, below the 8% base threshold.
	traj := synthKernelTrajectory(1_000_000, []int64{0, 20_000, -20_000, 50_000})
	r := Compare("kernel", traj, 0)
	if len(r.Regressions()) != 0 {
		t.Fatalf("within-noise jitter gated: %+v", r.Cells)
	}
}

func TestCompareNoiseWidensThreshold(t *testing.T) {
	// History jitters ±15% (relative MAD 0.15), so the limit must widen
	// to 3×0.15=45% and a 30% excursion must NOT be gated...
	traj := synthKernelTrajectory(1_000_000, []int64{150_000, -150_000, 0, 150_000, -150_000, 300_000})
	r := Compare("kernel", traj, 0)
	if len(r.Regressions()) != 0 {
		t.Fatalf("noisy cell gated at base threshold: %+v", r.Cells)
	}
	if len(r.Cells) != 1 || r.Cells[0].Limit < 0.4 {
		t.Fatalf("limit should widen with historical MAD: %+v", r.Cells)
	}
	// ...while a stable history keeps the tight base threshold.
	tight := Compare("kernel", synthKernelTrajectory(1_000_000, []int64{0, 1_000, -1_000, 300_000}), 0)
	if len(tight.Regressions()) != 1 {
		t.Fatalf("stable cell not gated at base threshold: %+v", tight.Cells)
	}
}

func TestCompareMismatchedHostRefuses(t *testing.T) {
	// All history is from another machine: the comparator must refuse,
	// not report the (meaningless) 3x slowdown as a regression.
	other := synthHost()
	other.CPU, other.Cores = "older-cpu", 2
	traj := synthKernelTrajectory(1_000_000, []int64{0, 0, 2_000_000}, other, other, synthHost())
	r := Compare("kernel", traj, 0)
	if r.Skipped == "" {
		t.Fatalf("cross-host comparison not refused: %+v", r.Cells)
	}
	if len(r.Cells) != 0 || len(r.Regressions()) != 0 {
		t.Fatalf("skipped report must carry no verdicts: %+v", r.Cells)
	}
	if !strings.Contains(r.Skipped, "cross-machine") {
		t.Errorf("refusal should explain itself: %s", r.Skipped)
	}
}

func TestCompareZeroFingerprintComparableToNothing(t *testing.T) {
	// A legacy run 0 (migrated, no fingerprint) must never anchor a
	// comparison — even against another fingerprint-less run.
	traj := synthKernelTrajectory(1_000_000, []int64{0, 900_000}, HostFingerprint{}, HostFingerprint{})
	r := Compare("kernel", traj, 0)
	if r.Skipped == "" || len(r.Regressions()) != 0 {
		t.Fatalf("fingerprint-less runs compared: skipped=%q cells=%+v", r.Skipped, r.Cells)
	}
}

func TestCompareConfigKeySeparatesRuns(t *testing.T) {
	// Same host but a different seed measures different graphs: refuse.
	traj := synthKernelTrajectory(1_000_000, []int64{0, 0, 800_000})
	traj[2].(*KernelRun).Seed = 99
	r := Compare("kernel", traj, 0)
	if r.Skipped == "" {
		t.Fatalf("mismatched run configuration compared: %+v", r.Cells)
	}
}

func TestCompareEmptyAndSingle(t *testing.T) {
	if r := Compare("kernel", nil, 0); r.Skipped == "" {
		t.Error("empty trajectory should skip")
	}
	if r := Compare("kernel", synthKernelTrajectory(1_000_000, []int64{0}), 0); r.Skipped == "" {
		t.Error("single-run trajectory should skip")
	}
}
