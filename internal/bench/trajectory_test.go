package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyKernelDoc is a pre-trajectory BENCH_kernel.json: "rows" at top
// level, no "runs", no host fingerprint — and a deliberately quirky field
// order plus a field the current structs do not have, so any re-marshal
// through KernelRun would visibly rewrite it.
const legacyKernelDoc = `{
  "goVersion": "go1.23.0-legacy",
  "gomaxprocs": 16,
  "quick": false,
  "seed": 1,
  "retiredField": "must survive migration untouched",
  "rows": [
    {
      "family": "sparse-gnp",
      "n": 1024,
      "m": 10401,
      "p": 4,
      "workers": 1,
      "cliques": 1435,
      "nsPerOp": 12345678
    }
  ]
}
`

func rawRuns(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc.Runs
}

// TestAppendMigratesLegacyDoc: appending to a legacy single-run document
// wraps it, verbatim, as run 0.
func TestAppendMigratesLegacyDoc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	if err := os.WriteFile(path, []byte(legacyKernelDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := AppendRun(path, KernelRun{RunHeader: RunHeader{GoVersion: "go1.24.0", Seed: 1, Host: Fingerprint()}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("AppendRun returned %d runs, want 2", n)
	}
	runs := rawRuns(t, path)
	if len(runs) != 2 {
		t.Fatalf("got %d runs on disk, want 2", len(runs))
	}
	var legacy, migrated any
	if err := json.Unmarshal([]byte(legacyKernelDoc), &legacy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(runs[0], &migrated); err != nil {
		t.Fatal(err)
	}
	// Compare as values (indentation legitimately changes when the doc is
	// nested into the runs array) — the retired field must survive.
	legacyBuf, _ := json.Marshal(legacy)
	migratedBuf, _ := json.Marshal(migrated)
	if !bytes.Equal(legacyBuf, migratedBuf) {
		t.Errorf("legacy doc rewritten during migration:\nwas %s\nnow %s", legacyBuf, migratedBuf)
	}
	if !strings.Contains(string(runs[0]), "retiredField") {
		t.Error("unknown legacy field dropped by migration")
	}
	// And the typed loader sees both runs.
	loaded, err := Load[KernelRun](path)
	if err != nil {
		t.Fatal(err)
	}
	run0 := loaded[0].(*KernelRun)
	if len(loaded) != 2 || run0.GoVersion != "go1.23.0-legacy" || run0.Rows[0].Cliques != 1435 {
		t.Errorf("typed load mangled the migration: %+v", loaded)
	}
	if !run0.Host.IsZero() {
		t.Error("legacy run invented a host fingerprint")
	}
}

func TestReadTrajectoryMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	doc, err := readTrajectory(filepath.Join(dir, "nope.json"))
	if err != nil || len(doc.Runs) != 0 {
		t.Fatalf("missing file should be an empty trajectory, got %v, %v", doc, err)
	}
	for name, body := range map[string]string{
		"garbage.json":   "not json at all",
		"wrongkind.json": `{"neitherRunsNorRows": 1}`,
		"badruns.json":   `{"runs": 42}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readTrajectory(p); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
		if _, err := AppendRun(p, KernelRun{}); err == nil {
			t.Errorf("%s: AppendRun must refuse rather than clobber", name)
		}
	}
}

// TestWriteFileAtomic: the write lands complete, leaves no temp files,
// and replaces rather than truncates.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second, longer payload")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second, longer payload" {
		t.Fatalf("read back %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %v", entries)
	}

	// A new file gets 0644; a replaced file keeps its permission bits.
	mode := func(p string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if got := mode(path); got != 0o644 {
		t.Errorf("new file mode %v, want 0644", got)
	}
	for _, want := range []os.FileMode{0o600, 0o664} {
		if err := os.Chmod(path, want); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if got := mode(path); got != want {
			t.Errorf("rewrite changed mode %v to %v", want, got)
		}
	}
	if _, err := AppendRun(path+".traj", &KernelRun{}); err != nil {
		t.Fatal(err)
	}
	if got := mode(path + ".traj"); got != 0o644 {
		t.Errorf("new trajectory mode %v, want 0644", got)
	}
}

func TestFingerprint(t *testing.T) {
	fp := Fingerprint()
	if fp.IsZero() {
		t.Fatal("live fingerprint is zero")
	}
	if fp.Cores < 1 || fp.GOMAXPROCS < 1 || fp.GoVersion == "" || fp.OS == "" || fp.Arch == "" {
		t.Errorf("incomplete fingerprint: %+v", fp)
	}
	if !fp.Comparable(Fingerprint()) {
		t.Error("fingerprint not comparable to itself")
	}
	var zero HostFingerprint
	if zero.Comparable(zero) || fp.Comparable(zero) || zero.Comparable(fp) {
		t.Error("zero fingerprint must be comparable to nothing, itself included")
	}
	other := fp
	other.CPU = fp.CPU + " (different)"
	if fp.Comparable(other) {
		t.Error("differing CPU models compared")
	}
}
