package bench

// The regression comparator behind `benchrunner -compare`: judge the
// newest run of a trajectory against the median of its own host's
// history, cell by cell. Two design rules keep it honest on noisy CI
// hardware: (1) runs whose host fingerprints differ are never compared —
// a fingerprint mismatch REFUSES the comparison (CompareReport.Skipped)
// instead of reporting a phantom regression; (2) the threshold is
// noise-aware — each cell's limit is the larger of the configured base
// threshold and a multiple of the cell's own historical spread (relative
// median absolute deviation), so a cell that historically jitters ±6%
// is not gated at ±8%; and (3) a regression verdict requires the new
// measurement to exceed every comparable historical sample (the noise
// envelope) as well as the median threshold — a measurement some prior
// run of unchanged code already matched cannot indict a code change.

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultCompareThreshold is the base relative slowdown (new vs median)
// tolerated before a cell regresses: 8%, deliberately below the 10%
// regressions the acceptance gate must catch, with the noise term
// widening it on cells whose history is genuinely jittery.
const DefaultCompareThreshold = 0.08

// compareNoiseMult scales the historical relative MAD into the tolerance:
// limit = max(threshold, compareNoiseMult · relMAD).
const compareNoiseMult = 3.0

// CellVerdict is the judgement of one measurement cell.
type CellVerdict struct {
	// Name is the cell's name (its benchfmt name without "Benchmark").
	Name string
	// NewNs is the newest run's measurement, MedianNs the median of the
	// comparable history.
	NewNs, MedianNs int64
	// Ratio is NewNs/MedianNs; Limit the tolerated relative excess.
	Ratio, Limit float64
	// Samples is how many prior same-host runs measured this cell.
	Samples int
	// Regressed is Ratio > 1+Limit.
	Regressed bool
}

// CompareReport is the outcome of judging one trajectory's newest run.
type CompareReport struct {
	// Suite names the trajectory ("kernel", "store", "cluster", "sketch").
	Suite string
	// Threshold is the base relative threshold the comparison ran with.
	Threshold float64
	// NewHost is the newest run's fingerprint.
	NewHost HostFingerprint
	// History is the number of prior runs that were comparable (same
	// host fingerprint and run configuration).
	History int
	// Skipped, when non-empty, explains why the comparison was refused
	// (no prior runs, or none from this host/configuration). A skipped
	// report carries no cells and no regressions.
	Skipped string
	// Cells holds one verdict per cell measured by both the newest run
	// and at least one comparable prior run, sorted by name.
	Cells []CellVerdict
}

// Regressions returns the regressed cells.
func (r *CompareReport) Regressions() []CellVerdict {
	var out []CellVerdict
	for _, c := range r.Cells {
		if c.Regressed {
			out = append(out, c)
		}
	}
	return out
}

// Table renders the verdicts as an aligned text table.
func (r *CompareReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: newest run vs same-host trajectory median (base threshold %.0f%%)\n",
		r.Suite, 100*r.Threshold)
	if r.Skipped != "" {
		fmt.Fprintf(&sb, "comparison skipped: %s\n", r.Skipped)
		return sb.String()
	}
	fmt.Fprintf(&sb, "# host: %s, comparable history: %d run(s)\n", r.NewHost, r.History)
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s %8s %s\n", "cell", "new-ns", "median-ns", "ratio", "limit", "verdict")
	for _, c := range r.Cells {
		verdict := "ok"
		switch {
		case c.Regressed:
			verdict = "REGRESSED"
		case c.Ratio < 1:
			verdict = "improved"
		}
		fmt.Fprintf(&sb, "%-44s %14d %14d %7.3fx %7.0f%% %s\n",
			c.Name, c.NewNs, c.MedianNs, c.Ratio, 100*c.Limit, verdict)
	}
	return sb.String()
}

// runCells is the comparator's flattened view of one run: its host, a
// configuration key (runs with different configurations measure different
// graphs and must not be compared), and the named ns measurements.
type runCells struct {
	host  HostFingerprint
	key   string
	cells map[string]int64
}

// compareCells judges the newest run in history against the median of the
// prior runs sharing its host fingerprint and configuration key.
func compareCells(suite string, history []runCells, threshold float64) *CompareReport {
	r := &CompareReport{Suite: suite, Threshold: threshold}
	if len(history) == 0 {
		r.Skipped = "trajectory is empty"
		return r
	}
	newest := history[len(history)-1]
	r.NewHost = newest.host
	if len(history) == 1 {
		r.Skipped = "no prior runs to compare against"
		return r
	}
	var prior []runCells
	for _, h := range history[:len(history)-1] {
		if h.host.Comparable(newest.host) && h.key == newest.key {
			prior = append(prior, h)
		}
	}
	if len(prior) == 0 {
		r.Skipped = fmt.Sprintf(
			"no prior runs from this host/configuration (host %s, config %s) — cross-machine runs are never compared",
			newest.host, newest.key)
		return r
	}
	r.History = len(prior)

	names := make([]string, 0, len(newest.cells))
	for name := range newest.cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		newNs := newest.cells[name]
		var samples []int64
		for _, h := range prior {
			if ns, ok := h.cells[name]; ok && ns > 0 {
				samples = append(samples, ns)
			}
		}
		if len(samples) == 0 || newNs <= 0 {
			continue
		}
		med := medianInt64(samples)
		relMAD := relativeMAD(samples, med)
		limit := threshold
		if noisy := compareNoiseMult * relMAD; noisy > limit {
			limit = noisy
		}
		ratio := float64(newNs) / float64(med)
		// Noise envelope: a regression verdict additionally requires the
		// new measurement to exceed EVERY comparable historical sample —
		// if some prior run of unchanged code was this slow, the slowness
		// is inside the machine's demonstrated noise range, not a code
		// change. A real regression sits above the whole envelope.
		maxNs := samples[0]
		for _, s := range samples[1:] {
			if s > maxNs {
				maxNs = s
			}
		}
		r.Cells = append(r.Cells, CellVerdict{
			Name:      name,
			NewNs:     newNs,
			MedianNs:  med,
			Ratio:     ratio,
			Limit:     limit,
			Samples:   len(samples),
			Regressed: ratio > 1+limit && newNs > maxNs,
		})
	}
	return r
}

// medianInt64 returns the median of xs — the mean of the two middles for
// even counts, so a two-sample history is judged against the midpoint
// rather than its faster run (xs is copied, not reordered).
func medianInt64(xs []int64) int64 {
	s := make([]int64, len(xs))
	copy(s, xs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// relativeMAD is the median absolute deviation of xs around med, as a
// fraction of med (0 when med is 0 or there is a single sample).
func relativeMAD(xs []int64, med int64) float64 {
	if med <= 0 || len(xs) < 2 {
		return 0
	}
	devs := make([]int64, len(xs))
	for i, x := range xs {
		d := x - med
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	return float64(medianInt64(devs)) / float64(med)
}

// Compare judges the newest of runs against the median of its same-host,
// same-configuration history, cell by cell. threshold ≤ 0 takes
// DefaultCompareThreshold.
func Compare(suite string, runs []Run, threshold float64) *CompareReport {
	if threshold <= 0 {
		threshold = DefaultCompareThreshold
	}
	history := make([]runCells, len(runs))
	for i, run := range runs {
		h := run.header()
		cells := make(map[string]int64)
		for _, c := range run.Cells() {
			cells[c.Name] = c.Ns
		}
		history[i] = runCells{
			host:  h.Host,
			key:   fmt.Sprintf("quick=%v/seed=%d", h.Quick, h.Seed),
			cells: cells,
		}
	}
	return compareCells(suite, history, threshold)
}

// Benchfmt renders the run's cells in the standard Go benchmark text
// format (one `Benchmark<cell> 1 N ns/op` line per cell after the
// goos/goarch/cpu preamble), so the trajectories feed straight into
// benchstat and the x/perf tooling.
func Benchfmt(run Run) string {
	var sb strings.Builder
	h := run.header().Host
	if h.OS != "" {
		fmt.Fprintf(&sb, "goos: %s\n", h.OS)
	}
	if h.Arch != "" {
		fmt.Fprintf(&sb, "goarch: %s\n", h.Arch)
	}
	if h.CPU != "" {
		fmt.Fprintf(&sb, "cpu: %s\n", h.CPU)
	}
	for _, c := range run.Cells() {
		fmt.Fprintf(&sb, "Benchmark%s \t1\t%d ns/op\n", c.Name, c.Ns)
	}
	return sb.String()
}
