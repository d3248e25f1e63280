// Package bench is the experiment harness: parameter sweeps over the
// listing algorithms, log-log exponent fitting, and text renderers for the
// series. Each E-runner regenerates one of the paper artefacts indexed in
// DESIGN.md §4.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one measurement in a sweep.
type Point struct {
	// X is the sweep variable (n, or m for E3).
	X float64
	// Rounds is the charged CONGEST round bill.
	Rounds int64
	// Messages is the total word traffic.
	Messages int64
	// Meta carries experiment-specific extras (e.g. cliques found).
	Meta map[string]float64
}

// Series is one labelled measurement curve.
type Series struct {
	Name   string
	XLabel string
	// Expected is the reference exponent for this curve — the cost-model
	// prediction for the sweep's workload family (0 if not applicable).
	// DESIGN.md §4 says how each series' reference relates to the paper's
	// asymptotic exponent.
	Expected float64
	Points   []Point
}

// FitExponent fits Rounds ≈ C·X^α by least squares on the log-log points
// and returns α with the correlation R². Points with non-positive values
// are skipped; fewer than two usable points yield (0, 0).
func (s *Series) FitExponent() (alpha, r2 float64) {
	var xs, ys []float64
	for _, p := range s.Points {
		if p.X > 0 && p.Rounds > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(float64(p.Rounds)))
		}
	}
	n := float64(len(xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	alpha = (n*sxy - sx*sy) / den
	// R² via correlation coefficient.
	cden := math.Sqrt((n*sxx - sx*sx) * (n*syy - sy*sy))
	if cden == 0 {
		return alpha, 1
	}
	r := (n*sxy - sx*sy) / cden
	return alpha, r * r
}

// Table renders the series as an aligned text table.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	metaKeys := map[string]bool{}
	for _, p := range s.Points {
		for k := range p.Meta {
			metaKeys[k] = true
		}
	}
	keys := make([]string, 0, len(metaKeys))
	for k := range metaKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "%12s %12s %14s", s.XLabel, "rounds", "messages")
	for _, k := range keys {
		fmt.Fprintf(&b, " %14s", k)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%12.0f %12d %14d", p.X, p.Rounds, p.Messages)
		for _, k := range keys {
			fmt.Fprintf(&b, " %14.3f", p.Meta[k])
		}
		b.WriteByte('\n')
	}
	if alpha, r2 := s.FitExponent(); r2 > 0 {
		fmt.Fprintf(&b, "fit: rounds ~ %s^%.3f (R²=%.3f", s.XLabel, alpha, r2)
		if s.Expected > 0 {
			fmt.Fprintf(&b, ", reference exponent %.3f", s.Expected)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// RenderAll renders a collection of series separated by blank lines.
func RenderAll(series []Series) string {
	var b strings.Builder
	for i := range series {
		b.WriteString(series[i].Table())
		b.WriteByte('\n')
	}
	return b.String()
}
