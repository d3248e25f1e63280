// Package obstest holds the /metrics test helpers the node and gateway
// test suites share.
package obstest

import (
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Series reduces a Prometheus text exposition to its series set: every
// "# TYPE" line, and every sample's name{labels} with the value
// stripped, sorted. Duplicate lines are kept so a repeated TYPE line
// shows.
func Series(text string) string {
	var lines []string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			lines = append(lines, line)
		case line == "" || line[0] == '#':
		default:
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// CheckTypes fails t unless every family in the exposition has exactly
// one TYPE line and that line precedes the family's samples.
func CheckTypes(t testing.TB, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(f, " ")
			if typed[name] {
				t.Errorf("second TYPE line for %s", name)
			}
			typed[name] = true
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] {
				name = base
			}
		}
		if !typed[name] {
			t.Errorf("sample %q precedes its TYPE line", line)
		}
	}
}

// Golden fails t unless got equals the file at path. Run the test with
// -update to rewrite the file, then review its diff.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil || string(want) != got {
		t.Errorf("%s is missing or stale (%v); rerun with -update and review the diff. Current output:\n%s", path, err, got)
	}
}
