package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpenWAL(t *testing.T, path string) (*WAL, ScanResult) {
	t.Helper()
	w, res, err := OpenWAL(path, true)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", path, err)
	}
	return w, res
}

func TestWALAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, res := mustOpenWAL(t, path)
	if len(res.Records) != 0 || res.Torn || res.Corrupt {
		t.Fatalf("fresh log scan: %+v", res)
	}
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-longer-payload")}
	for i, p := range payloads {
		seq, err := w.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Errorf("Append %d: seq %d, want %d", i, seq, want)
		}
	}
	if w.Records() != 3 || w.LastSeq() != 3 {
		t.Errorf("after appends: records=%d lastSeq=%d", w.Records(), w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res2 := mustOpenWAL(t, path)
	defer w2.Close()
	if res2.Torn || res2.Corrupt {
		t.Errorf("clean reopen flagged torn=%v corrupt=%v", res2.Torn, res2.Corrupt)
	}
	if len(res2.Records) != len(payloads) {
		t.Fatalf("reopen recovered %d records, want %d", len(res2.Records), len(payloads))
	}
	for i, rec := range res2.Records {
		if rec.Seq != uint64(i+1) || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Errorf("record %d: seq=%d payload=%q", i, rec.Seq, rec.Payload)
		}
	}
	if seq, err := w2.Append([]byte("delta")); err != nil || seq != 4 {
		t.Errorf("append after reopen: seq=%d err=%v, want 4", seq, err)
	}
}

// A torn tail — any strict prefix of the final frame — must recover every
// earlier record and position the log so the next append reuses the torn
// record's sequence number.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := mustOpenWAL(t, path)
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	keep := w.Size()
	if _, err := w.Append([]byte("third-to-be-torn")); err != nil {
		t.Fatal(err)
	}
	full := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := keep + 1; cut < full; cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tw, res := mustOpenWAL(t, torn)
		if !res.Torn || res.Corrupt {
			t.Errorf("cut=%d: torn=%v corrupt=%v, want torn only", cut, res.Torn, res.Corrupt)
		}
		if len(res.Records) != 2 {
			t.Fatalf("cut=%d: recovered %d records, want 2", cut, len(res.Records))
		}
		if tw.Size() != keep {
			t.Errorf("cut=%d: size after truncate %d, want %d", cut, tw.Size(), keep)
		}
		if seq, err := tw.Append([]byte("replacement")); err != nil || seq != 3 {
			t.Errorf("cut=%d: append after truncate seq=%d err=%v, want 3", cut, seq, err)
		}
		tw.Close()
	}
}

// An fsync failure must leave no trace of the unacknowledged frame:
// were it left on disk, the next successful append would write a
// duplicate sequence number after it, and the recovery scan's
// monotonicity check would truncate the later, acknowledged batch.
func TestWALAppendSyncFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	committed := w.Size()
	realSync := w.sync
	w.sync = func() error { return errors.New("injected fsync failure") }
	if _, err := w.Append([]byte("never-acked")); err == nil {
		t.Fatal("append with failing fsync reported success")
	}
	if w.Size() != committed || w.LastSeq() != 1 || w.Records() != 1 {
		t.Errorf("after failed append: size=%d lastSeq=%d records=%d, want size=%d lastSeq=1 records=1",
			w.Size(), w.LastSeq(), w.Records(), committed)
	}
	w.sync = realSync
	if seq, err := w.Append([]byte("second")); err != nil || seq != 2 {
		t.Fatalf("append after transient fsync failure: seq=%d err=%v, want 2", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res := mustOpenWAL(t, path)
	defer w2.Close()
	if res.Torn || res.Corrupt {
		t.Errorf("reopen flagged torn=%v corrupt=%v after a rolled-back fsync failure", res.Torn, res.Corrupt)
	}
	if len(res.Records) != 2 ||
		!bytes.Equal(res.Records[0].Payload, []byte("committed")) ||
		!bytes.Equal(res.Records[1].Payload, []byte("second")) {
		t.Errorf("recovered %d records, want the two acknowledged payloads", len(res.Records))
	}
}

func TestWALCorruptRecordEndsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := mustOpenWAL(t, path)
	if _, err := w.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	boundary := w.Size()
	if _, err := w.Append([]byte("corrupt-me")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[boundary+walFrameHeader] ^= 0x40 // flip a payload bit in record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, res := mustOpenWAL(t, path)
	defer w2.Close()
	if !res.Corrupt {
		t.Error("bit-flipped record not flagged corrupt")
	}
	if len(res.Records) != 1 || !bytes.Equal(res.Records[0].Payload, []byte("keep-me")) {
		t.Errorf("recovered %d records", len(res.Records))
	}
	if w2.Size() != boundary {
		t.Errorf("size %d after corrupt truncate, want %d", w2.Size(), boundary)
	}
}

func TestWALBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL!extra"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, true); !errors.Is(err, ErrCorruptWAL) {
		t.Errorf("bad magic: got %v, want ErrCorruptWAL", err)
	}
}

func TestWALResetAndAdvanceSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := mustOpenWAL(t, path)
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("records after reset: %d", w.Records())
	}
	// Sequence numbers keep counting past the reset within one process...
	if seq, err := w.Append([]byte("y")); err != nil || seq != 6 {
		t.Errorf("append after reset: seq=%d err=%v, want 6", seq, err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// ...and across a restart the snapshot epoch restores the floor.
	w2, res := mustOpenWAL(t, path)
	defer w2.Close()
	if len(res.Records) != 0 {
		t.Fatalf("reopen after reset recovered %d records", len(res.Records))
	}
	w2.AdvanceSeq(6) // the compacted snapshot's epoch
	if seq, err := w2.Append([]byte("z")); err != nil || seq != 7 {
		t.Errorf("append after AdvanceSeq: seq=%d err=%v, want 7", seq, err)
	}
	w2.AdvanceSeq(3) // never lowers the floor
	if w2.LastSeq() != 7 {
		t.Errorf("AdvanceSeq lowered lastSeq to %d", w2.LastSeq())
	}
}

func TestScanRecordsRejectsNonIncreasingSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := mustOpenWAL(t, path)
	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	one := w.Size() - int64(len(walMagic))
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the frame: same seq twice must flag corruption.
	frame := data[len(walMagic) : int64(len(walMagic))+one]
	res, err := ScanRecords(append(data, frame...))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corrupt || len(res.Records) != 1 {
		t.Errorf("duplicated seq: corrupt=%v records=%d, want corrupt with 1 record", res.Corrupt, len(res.Records))
	}
}

// TestWALSyncedLifecycle runs the WAL with per-append fsync enabled (the
// production configuration) end to end: creation syncs the header,
// appends sync each frame, Reset syncs the truncation, and the explicit
// Sync flush succeeds.
func TestWALSyncedLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "synced.wal")
	w, res, err := OpenWAL(path, false)
	if err != nil {
		t.Fatalf("OpenWAL synced: %v", err)
	}
	if len(res.Records) != 0 || res.Torn || res.Corrupt {
		t.Fatalf("fresh synced WAL scan: %+v", res)
	}
	if _, err := w.Append([]byte("batch-1")); err != nil {
		t.Fatalf("synced append: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("explicit sync: %v", err)
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("synced reset: %v", err)
	}
	if w.Records() != 0 || w.Size() != int64(len(walMagic)) {
		t.Fatalf("after reset: records=%d size=%d", w.Records(), w.Size())
	}
	// Sequence numbers survive the reset.
	if seq, err := w.Append([]byte("batch-2")); err != nil || seq != 2 {
		t.Fatalf("post-reset append: seq=%d err=%v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, res2, err := OpenWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 1 || res2.Records[0].Seq != 2 {
		t.Fatalf("reopen after synced lifecycle: %+v", res2)
	}
}

// TestWALFailedRollbackPoisonsLog closes the file out from under the WAL
// so an append's write fails AND the rollback's truncate fails: the log
// must mark itself unusable and refuse every later append rather than
// acknowledge writes past a stale frame.
func TestWALFailedRollbackPoisonsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.wal")
	w, _ := mustOpenWAL(t, path)
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // sabotage: write and truncate now both fail
	if _, err := w.Append([]byte("doomed")); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if !w.failed {
		t.Fatal("failed rollback did not poison the log")
	}
	if _, err := w.Append([]byte("after")); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("poisoned log accepted an append: %v", err)
	}
}

// TestWALReadAfter pins the log-tail read the replica catch-up serves
// from: the records past a seq, the coverage boundary (first record's
// seq − 1, or LastSeq on an empty log) and a reset log's new start.
func TestWALReadAfter(t *testing.T) {
	w, _ := mustOpenWAL(t, filepath.Join(t.TempDir(), "wal.log"))
	defer w.Close()
	if recs, ok, err := w.ReadAfter(0); err != nil || !ok || len(recs) != 0 {
		t.Fatalf("empty log: %d records, covers %v, err %v", len(recs), ok, err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for after := uint64(0); after <= 5; after++ {
		recs, ok, err := w.ReadAfter(after)
		if err != nil || !ok {
			t.Fatalf("after %d: covers %v, err %v", after, ok, err)
		}
		want := 0
		if after < 4 {
			want = int(4 - after)
		}
		if len(recs) != want {
			t.Fatalf("after %d: %d records, want %d", after, len(recs), want)
		}
		for i, r := range recs {
			if r.Seq != after+uint64(i)+1 || string(r.Payload) != fmt.Sprintf("batch-%d", r.Seq) {
				t.Fatalf("after %d: record %d is seq %d %q", after, i, r.Seq, r.Payload)
			}
		}
	}

	// A reset (compaction) moves the start to LastSeq; one more append
	// starts the log at seq 5 − 1.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := w.ReadAfter(3); ok {
		t.Fatal("reset log still claims to cover seq 3")
	}
	if recs, ok, _ := w.ReadAfter(4); !ok || len(recs) != 0 {
		t.Fatalf("reset log after 4: %d records, covers %v", len(recs), ok)
	}
	if _, err := w.Append([]byte("batch-5")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := w.ReadAfter(3); ok {
		t.Fatal("log starting at seq 5 claims to cover seq 3")
	}
	if recs, ok, _ := w.ReadAfter(4); !ok || len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("after 4: %+v covers %v", recs, ok)
	}
	// Appends after a read still land at the end of the file.
	if _, err := w.Append([]byte("batch-6")); err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := w.ReadAfter(4); len(recs) != 2 || recs[1].Seq != 6 {
		t.Fatalf("after a read, append: %+v", recs)
	}
}
