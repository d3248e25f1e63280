package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kplist/internal/store"
)

func cliqueList(t *testing.T, g *Graph, p, workers int) []Clique {
	t.Helper()
	return g.ListCliquesWorkers(p, workers)
}

// Round trip: snapshot a graph, reopen it, and serve listings straight
// off the mapping — with the construction counter proving the kernel was
// adopted, not re-derived, and the output byte-identical to the source
// graph at every worker count.
func TestGraphSnapshotServesWithoutKernelRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ErdosRenyi(300, 0.08, rng)
	path := filepath.Join(t.TempDir(), "g.kpsnap")

	want := map[int][]Clique{}
	for _, p := range []int{3, 4} {
		want[p] = g.ListCliques(p) // also forces the kernel pre-write
	}
	if err := WriteGraphSnapshot(path, g, 12345); err != nil {
		t.Fatalf("WriteGraphSnapshot: %v", err)
	}

	before := KernelBuilds()
	gs, err := OpenGraphSnapshot(path)
	if err != nil {
		t.Fatalf("OpenGraphSnapshot: %v", err)
	}
	defer gs.Close()
	if gs.Epoch() != 12345 {
		t.Errorf("epoch: got %d want 12345", gs.Epoch())
	}
	rg := gs.Graph()
	if rg.N() != g.N() || rg.M() != g.M() {
		t.Fatalf("dimensions: got (%d,%d) want (%d,%d)", rg.N(), rg.M(), g.N(), g.M())
	}
	for _, p := range []int{3, 4} {
		for _, workers := range []int{1, 8} {
			got := cliqueList(t, rg, p, workers)
			if !reflect.DeepEqual(got, want[p]) {
				t.Errorf("p=%d workers=%d: listing differs from source graph", p, workers)
			}
		}
	}
	if builds := KernelBuilds() - before; builds != 0 {
		t.Errorf("snapshot open+list derived %d kernels, want 0 (CSR must be adopted from the file)", builds)
	}

	// The adjacency surface must round trip too.
	for v := V(0); int(v) < g.N(); v++ {
		if !reflect.DeepEqual(rg.Neighbors(v), g.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) differs", v)
		}
	}
}

// The graph OpenGraphStore returns must be heap-owned: closing the
// store (the server's DELETE and shutdown paths) unmaps nothing a live
// reader can still touch. Every read below happens after Close — with
// the graph still aliasing the mapping this would fault, not fail — and
// the construction counter proves materializing still adopts the stored
// kernel rather than re-deriving it.
func TestGraphStoreGraphSurvivesClose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := ErdosRenyi(200, 0.1, rng)
	want := src.ListCliques(3)
	dir := t.TempDir()
	st, err := CreateGraphStore(dir, src, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatalf("CreateGraphStore: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := KernelBuilds()
	st2, g, stats, err := OpenGraphStore(dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatalf("OpenGraphStore: %v", err)
	}
	if !stats.SnapshotLoaded || stats.WALRecords != 0 {
		t.Fatalf("recovery stats: %+v, want a snapshot load with no replay", stats)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if got := cliqueList(t, g, 3, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: listing after store Close differs from source graph", workers)
		}
	}
	if g.N() != src.N() || g.M() != src.M() {
		t.Errorf("dimensions after Close: got (%d,%d) want (%d,%d)", g.N(), g.M(), src.N(), src.M())
	}
	if builds := KernelBuilds() - before; builds != 0 {
		t.Errorf("recovery derived %d kernels, want 0 (stored CSR must be adopted)", builds)
	}
}

func TestOpenGraphSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.kpsnap")
	g := Complete(5)
	if err := WriteGraphSnapshot(path, g, 1); err != nil {
		t.Fatal(err)
	}
	// A structurally valid store file that is not a graph snapshot.
	bad := filepath.Join(dir, "bad.kpsnap")
	if err := store.WriteSnapshot(bad, store.Meta{N: 5, M: 10}, []store.Section{
		{Name: "adjoff", Data: []int32{0, 1, 2, 3, 4, 5}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGraphSnapshot(bad); !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Errorf("missing sections: got %v, want ErrCorruptSnapshot", err)
	}
	// Inconsistent CSR: offsets not covering the heads.
	bad2 := filepath.Join(dir, "bad2.kpsnap")
	if err := store.WriteSnapshot(bad2, store.Meta{N: 2, M: 1, MaxOut: 1, MaxID: 1}, []store.Section{
		{Name: "adjoff", Data: []int32{0, 1, 1}}, // claims 1 head, file has 2
		{Name: "adjhead", Data: []int32{1, 0}},
		{Name: "koff", Data: []int32{0, 1, 1}},
		{Name: "khead", Data: []int32{1}},
		{Name: "korig", Data: []int32{0, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGraphSnapshot(bad2); !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Errorf("inconsistent CSR: got %v, want ErrCorruptSnapshot", err)
	}
}

func TestWALBatchCodecRoundTrip(t *testing.T) {
	muts := []Mutation{
		{Op: MutDel, Edge: Edge{U: 0, V: 9}},
		{Op: MutAdd, Edge: Edge{U: 3, V: 4}},
		{Op: MutAdd, Edge: Edge{U: 100000, V: 2000000}},
	}
	got, err := DecodeWALBatch(EncodeWALBatch(muts))
	if err != nil {
		t.Fatalf("DecodeWALBatch: %v", err)
	}
	if !reflect.DeepEqual(got, muts) {
		t.Errorf("round trip: got %v want %v", got, muts)
	}
	if got, err := DecodeWALBatch(EncodeWALBatch(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %v, %v", got, err)
	}
	for _, bad := range [][]byte{
		nil,
		{1, 0, 0},
		append(EncodeWALBatch(muts), 0),
		EncodeWALBatch(muts)[:10],
		{1, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0, 0}, // op 7
	} {
		if _, err := DecodeWALBatch(bad); err == nil {
			t.Errorf("malformed payload %v accepted", bad)
		}
	}
}

func TestDynGraphCommitHook(t *testing.T) {
	g := Path(6)
	d := NewDynGraph(g, DynConfig{})
	var logged [][]Mutation
	d.SetCommitHook(func(muts []Mutation) error {
		logged = append(logged, append([]Mutation(nil), muts...))
		return nil
	})

	// A redundant + effective mix: only the effective mutations reach the
	// hook, canonicalized, deletions before insertions.
	if _, err := d.ApplyBatch([]Mutation{
		{Op: MutAdd, Edge: Edge{U: 1, V: 0}}, // already present (redundant)
		{Op: MutAdd, Edge: Edge{U: 5, V: 0}},
		{Op: MutDel, Edge: Edge{U: 2, V: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	want := []Mutation{
		{Op: MutDel, Edge: Edge{U: 1, V: 2}},
		{Op: MutAdd, Edge: Edge{U: 0, V: 5}},
	}
	if len(logged) != 1 || !reflect.DeepEqual(logged[0], want) {
		t.Fatalf("hook saw %v, want [%v]", logged, want)
	}

	// A fully redundant batch never reaches the hook.
	if _, err := d.ApplyBatch([]Mutation{{Op: MutDel, Edge: Edge{U: 1, V: 2}}}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 {
		t.Fatalf("no-op batch reached the hook: %d calls", len(logged))
	}

	// A failing hook aborts the batch with the graph untouched.
	hookErr := errors.New("disk full")
	d.SetCommitHook(func([]Mutation) error { return hookErr })
	mBefore := d.M()
	if _, err := d.ApplyBatch([]Mutation{{Op: MutAdd, Edge: Edge{U: 2, V: 4}}}); !errors.Is(err, hookErr) {
		t.Fatalf("ApplyBatch with failing hook: %v", err)
	}
	if d.M() != mBefore || d.HasEdge(2, 4) {
		t.Error("failed commit mutated the graph")
	}
}

func TestGraphStoreRecoveryReplaysTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	g := ErdosRenyi(120, 0.1, rng)

	gs, err := CreateGraphStore(dir, g, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatalf("CreateGraphStore: %v", err)
	}

	// Drive batches through a DynGraph wired to the store, mirroring the
	// server's mutation path.
	d := NewDynGraph(g, DynConfig{})
	d.SetCommitHook(gs.AppendBatch)
	for i := 0; i < 20; i++ {
		var muts []Mutation
		for j := 0; j < 8; j++ {
			u := V(rng.Intn(120))
			v := V(rng.Intn(120))
			if u == v {
				continue
			}
			op := MutAdd
			if rng.Intn(2) == 0 {
				op = MutDel
			}
			muts = append(muts, Mutation{Op: op, Edge: Edge{U: u, V: v}.Canon()})
		}
		if _, err := d.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
	}
	final := d.Snapshot()
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: snapshot at epoch 0 + full WAL replay.
	gs2, rg, stats, err := OpenGraphStore(dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatalf("OpenGraphStore: %v", err)
	}
	defer gs2.Close()
	if !stats.SnapshotLoaded || stats.SnapshotEpoch != 0 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.WALRecords == 0 {
		t.Error("no WAL records replayed")
	}
	if rg.N() != final.N() || rg.M() != final.M() {
		t.Fatalf("recovered (%d,%d), want (%d,%d)", rg.N(), rg.M(), final.N(), final.M())
	}
	if !reflect.DeepEqual(rg.Edges(), final.Edges()) {
		t.Fatal("recovered edge set differs from the live graph")
	}
	if !reflect.DeepEqual(rg.ListCliques(3), final.ListCliques(3)) {
		t.Fatal("recovered clique listing differs")
	}

	// Appends continue with sequence numbers above the replayed tail.
	if err := gs2.AppendBatch([]Mutation{{Op: MutAdd, Edge: Edge{U: 0, V: 1}}}); err != nil {
		t.Fatal(err)
	}
	if gs2.LastSeq() <= stats.SnapshotEpoch+uint64(stats.WALRecords)-1 {
		t.Errorf("LastSeq %d did not advance past the replayed tail", gs2.LastSeq())
	}
}

func TestGraphStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	g := Cycle(30)
	gs, err := CreateGraphStore(dir, g, StoreConfig{NoSync: true, CompactRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynGraph(g, DynConfig{})
	d.SetCommitHook(gs.AppendBatch)
	for i := 0; i < 5; i++ {
		if _, err := d.ApplyBatch([]Mutation{{Op: MutAdd, Edge: Edge{U: V(i), V: V(i + 10)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if !gs.ShouldCompact() {
		t.Fatal("5 records with CompactRecords=5 not flagged for compaction")
	}
	epoch := gs.LastSeq()
	if err := gs.Compact(d.Snapshot()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if gs.ShouldCompact() {
		t.Error("still flagged for compaction after Compact")
	}
	if gs.WALRecords() != 0 {
		t.Errorf("WAL holds %d records after compaction", gs.WALRecords())
	}

	// Exactly one snapshot file remains, at the compaction epoch.
	epochs, err := snapshotEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != epoch {
		t.Fatalf("snapshots after compaction: %v, want [%d]", epochs, epoch)
	}

	// Post-compaction batches land in the WAL with higher seqs; recovery
	// uses the new snapshot plus that tail.
	if _, err := d.ApplyBatch([]Mutation{{Op: MutDel, Edge: Edge{U: 0, V: 1}}}); err != nil {
		t.Fatal(err)
	}
	final := d.Snapshot()
	gs.Close()

	gs2, rg, stats, err := OpenGraphStore(dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gs2.Close()
	if stats.SnapshotEpoch != epoch || stats.WALRecords != 1 {
		t.Errorf("recovery stats after compaction: %+v", stats)
	}
	if !reflect.DeepEqual(rg.Edges(), final.Edges()) {
		t.Fatal("recovered edge set differs after compaction")
	}
}

// BatchesAfter reads the logged batches back in order with their seqs,
// and stops covering a seq once a compaction has folded past it.
func TestGraphStoreBatchesAfter(t *testing.T) {
	g := Cycle(30)
	gs, err := CreateGraphStoreAt(t.TempDir(), g, 7, StoreConfig{NoSync: true, CompactRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	d := NewDynGraph(g, DynConfig{})
	d.SetCommitHook(gs.AppendBatch)
	batch := func(i int) []Mutation {
		// Deletes first: the log holds the effective mutations in the
		// order the engine applies them.
		return []Mutation{{Op: MutDel, Edge: Edge{U: V(i + 20), V: V(i + 21)}}, {Op: MutAdd, Edge: Edge{U: V(i), V: V(i + 10)}}}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyBatch(batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := gs.BatchesAfter(6); ok {
		t.Fatal("a store seeded at epoch 7 claims to cover seq 6")
	}
	got, ok, err := gs.BatchesAfter(8)
	if err != nil || !ok || len(got) != 2 {
		t.Fatalf("after 8: %d batches, covers %v, err %v", len(got), ok, err)
	}
	for i, b := range got {
		if want := batch(i + 1); b.Seq != uint64(9+i) || !reflect.DeepEqual(b.Mutations, want) {
			t.Fatalf("batch %d: seq %d %v, want seq %d %v", i, b.Seq, b.Mutations, 9+i, want)
		}
	}
	if _, err := d.ApplyBatch(batch(3)); err != nil {
		t.Fatal(err)
	}
	if err := gs.Compact(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := gs.BatchesAfter(9); ok {
		t.Fatal("compacted store still covers seq 9")
	}
	if got, ok, _ := gs.BatchesAfter(11); !ok || len(got) != 0 {
		t.Fatalf("after the compaction epoch: %d batches, covers %v", len(got), ok)
	}
}

// A crash between the compaction snapshot's rename and the WAL reset
// leaves both the new snapshot and the stale log; recovery must skip the
// already-folded records.
func TestGraphStoreCrashBetweenSnapshotAndReset(t *testing.T) {
	dir := t.TempDir()
	g := Cycle(20)
	gs, err := CreateGraphStore(dir, g, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynGraph(g, DynConfig{})
	d.SetCommitHook(gs.AppendBatch)
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyBatch([]Mutation{{Op: MutAdd, Edge: Edge{U: V(i), V: V(i + 5)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the torn compaction: write the snapshot but never reset.
	if err := WriteGraphSnapshot(snapPath(dir, gs.LastSeq()), d.Snapshot(), gs.LastSeq()); err != nil {
		t.Fatal(err)
	}
	final := d.Snapshot()
	gs.Close()

	gs2, rg, stats, err := OpenGraphStore(dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gs2.Close()
	if stats.WALRecords != 0 {
		t.Errorf("replayed %d already-folded records", stats.WALRecords)
	}
	if !reflect.DeepEqual(rg.Edges(), final.Edges()) {
		t.Fatal("recovered edge set differs")
	}
	// The next append must not reuse folded sequence numbers.
	if err := gs2.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if gs2.LastSeq() <= stats.SnapshotEpoch {
		t.Errorf("append reused sequence %d at or below epoch %d", gs2.LastSeq(), stats.SnapshotEpoch)
	}
}

func TestGraphStoreSkipsCorruptNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := Complete(6)
	gs, err := CreateGraphStore(dir, g, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	gs.Close()
	// A newer snapshot that is garbage: recovery must fall back to the
	// older valid one.
	if err := os.WriteFile(snapPath(dir, 50), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	gs2, rg, stats, err := OpenGraphStore(dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatalf("OpenGraphStore with corrupt newest snapshot: %v", err)
	}
	defer gs2.Close()
	if stats.SnapshotEpoch != 0 {
		t.Errorf("recovered from epoch %d, want fallback to 0", stats.SnapshotEpoch)
	}
	if rg.M() != g.M() {
		t.Errorf("recovered m=%d want %d", rg.M(), g.M())
	}
}

func TestOpenGraphStoreEmptyDirErrors(t *testing.T) {
	if _, _, _, err := OpenGraphStore(t.TempDir(), StoreConfig{}); err == nil {
		t.Error("open of an empty directory succeeded")
	}
}

func TestSnapPathOrdering(t *testing.T) {
	// Zero-padded names sort lexically in epoch order — what ReadDir
	// relies on being re-sortable numerically.
	for _, e := range []uint64{0, 9, 10, 12345, 1 << 40} {
		p := snapPath("d", e)
		var back uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "snap-%d.kpsnap", &back); err != nil || back != e {
			t.Errorf("snapPath(%d) = %q, parses back to %d (%v)", e, p, back, err)
		}
	}
}
