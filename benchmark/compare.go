package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var bs benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return bs, err
	}
	return bs, json.Unmarshal(raw, &bs)
}

// loadRecords reads every record line of every .json/.jsonl file in dir,
// grouped as workload → metric → seed → value.
func loadRecords(dir string) (map[string]map[string]map[int64]float64, error) {
	out := map[string]map[string]map[int64]float64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !(strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".jsonl")) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Workload == "" {
				continue
			}
			byMetric := out[rec.Workload]
			if byMetric == nil {
				byMetric = map[string]map[int64]float64{}
				out[rec.Workload] = byMetric
			}
			for name, m := range rec.Result.Metrics {
				if byMetric[name] == nil {
					byMetric[name] = map[int64]float64{}
				}
				byMetric[name][rec.Seed] = m.Value
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// compareDirs reports, for each (workload, metric), both sides' median
// and quartiles, the share of seed-paired runs B won, and a verdict from
// the bounds in BENCHMARK.json (choosing-metrics §6–8): improved when B
// wins at least 9 of 10 pairs and the medians differ by more than A's
// quartile spread; regressed when B's median is worse by more than the
// bound; unresolved when A's own spread exceeds the bound and B does not
// beat every A run; unchanged otherwise. It exits 1 on any regression.
func compareDirs(dirA, dirB, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "kplistbench: reading", specPath+":", err)
		return 2
	}
	a, err := loadRecords(dirA)
	if err != nil {
		fmt.Fprintln(stderr, "kplistbench:", err)
		return 2
	}
	b, err := loadRecords(dirB)
	if err != nil {
		fmt.Fprintln(stderr, "kplistbench:", err)
		return 2
	}
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(stdout, "%-20s %-32s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "won", "verdict")
	regressed, totalPairs, totalWon := 0, 0, 0
	for _, w := range spec.Workloads {
		for _, ms := range metrics {
			av, bv := a[w.Name][ms.Name], b[w.Name][ms.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			as, bs, won, pairs := pairUp(av, bv, ms.Better)
			totalPairs += pairs
			totalWon += won
			a1, am, a3 := quartiles(as)
			b1, bm, b3 := quartiles(bs)
			verdict := "-"
			if ms.Bound != nil {
				verdict = judge(as, bs, am, a1, a3, bm, *ms.Bound, ms.Better, won, pairs)
				if verdict == "regressed" {
					regressed++
				}
			}
			fmt.Fprintf(stdout, "%-20s %-32s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %3d/%-2d  %s\n",
				w.Name, ms.Name, a1, am, a3, b1, bm, b3, won, pairs, verdict)
		}
	}
	fmt.Fprintf(stdout, "pairs won by B: %d of %d (%.0f%%); regressed: %d\n",
		totalWon, totalPairs, 100*ratio(float64(totalWon), float64(totalPairs)), regressed)
	if regressed > 0 {
		return 1
	}
	return 0
}

// pairUp returns both sides' values and how many seed-matched pairs B
// won (ties count for neither side); without common seeds it pairs runs
// in seed order.
func pairUp(av, bv map[int64]float64, better string) (as, bs []float64, won, pairs int) {
	seedsA, seedsB := sortedSeeds(av), sortedSeeds(bv)
	for _, s := range seedsA {
		as = append(as, av[s])
	}
	for _, s := range seedsB {
		bs = append(bs, bv[s])
	}
	var pa, pb []float64
	for _, s := range seedsA {
		if v, ok := bv[s]; ok {
			pa, pb = append(pa, av[s]), append(pb, v)
		}
	}
	if len(pa) == 0 {
		n := min(len(as), len(bs))
		pa, pb = as[:n], bs[:n]
	}
	for i := range pa {
		if beats(pb[i], pa[i], better) {
			won++
		}
	}
	return as, bs, won, len(pa)
}

func sortedSeeds(m map[int64]float64) []int64 {
	out := make([]int64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// beats reports whether x is strictly better than y.
func beats(x, y float64, better string) bool {
	if better == "higher" {
		return x > y
	}
	return x < y
}

// judge applies the verdict rules described on compareDirs.
func judge(as, bs []float64, am, a1, a3, bm, bound float64, better string, won, pairs int) string {
	worse := (bm - am) / am
	if better == "higher" {
		worse = (am - bm) / am
	}
	allBetter := true
	for _, x := range bs {
		for _, y := range as {
			if !beats(x, y, better) {
				allBetter = false
			}
		}
	}
	switch {
	case (a3-a1)/am > bound && !allBetter:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < 0 && pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(bm-am) > a3-a1:
		return "improved"
	}
	return "unchanged"
}
