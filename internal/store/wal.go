package store

// The write-ahead log: an append-only file of length-prefixed, CRC-32C'd
// records, one per committed mutation batch. Appends are fsynced before
// they return (one fsync per batch — the batching is the record), so an
// acknowledged batch survives a crash; a torn tail from an interrupted
// append is detected by the framing and truncated on the next open, so
// batches are atomic: fully replayed or fully absent. Records carry a
// monotone sequence number, letting recovery skip records a snapshot has
// already folded in without ever truncating concurrently with a snapshot
// write.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	walMagic = "KPWAL1\n\x00"
	// walFrameHeader is the per-record framing: payload length u32 +
	// CRC-32C u32 (over seq+payload) + sequence u64.
	walFrameHeader = 16
	// walMaxRecord bounds one record's payload so a corrupt length field
	// cannot drive an absurd allocation during a scan.
	walMaxRecord = 1 << 28
)

// ErrCorruptWAL reports WAL bytes that fail validation before the tail —
// a mid-log corruption, not a torn final append.
var ErrCorruptWAL = errors.New("store: corrupt WAL")

// Record is one decoded WAL record.
type Record struct {
	Seq     uint64
	Payload []byte
}

// ScanResult describes one pass over a WAL image.
type ScanResult struct {
	Records []Record
	// Valid is the byte length of the well-formed prefix (including the
	// file header); everything beyond it is a torn or corrupt tail.
	Valid int64
	// Torn reports a trailing partial frame (a crashed append); Corrupt a
	// structurally complete record that failed its checksum or bounds.
	// Both end the scan at Valid.
	Torn, Corrupt bool
}

// ScanRecords decodes a WAL image (header included). It never panics:
// malformed input ends the scan with Torn or Corrupt set and Valid
// marking the last trustworthy byte. Payload slices alias data.
func ScanRecords(data []byte) (ScanResult, error) {
	var res ScanResult
	if len(data) < len(walMagic) {
		res.Torn = len(data) > 0
		return res, nil
	}
	if string(data[:len(walMagic)]) != walMagic {
		return res, fmt.Errorf("%w: bad magic %q", ErrCorruptWAL, data[:len(walMagic)])
	}
	off := int64(len(walMagic))
	res.Valid = off
	var lastSeq uint64
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return res, nil
		}
		if len(rest) < walFrameHeader {
			res.Torn = true
			return res, nil
		}
		plen := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if plen > walMaxRecord {
			res.Corrupt = true
			return res, nil
		}
		frame := walFrameHeader + int(plen)
		if len(rest) < frame {
			res.Torn = true
			return res, nil
		}
		body := rest[8:frame] // seq + payload, the checksummed region
		if crc32.Checksum(body, castagnoli) != crc {
			res.Corrupt = true
			return res, nil
		}
		seq := binary.LittleEndian.Uint64(body)
		if seq <= lastSeq {
			// Sequence numbers are strictly increasing; a repeat means the
			// frame decoded "validly" out of garbage.
			res.Corrupt = true
			return res, nil
		}
		lastSeq = seq
		res.Records = append(res.Records, Record{Seq: seq, Payload: body[8:]})
		off += int64(frame)
		res.Valid = off
	}
}

// WAL is an open write-ahead log. Appends serialize on the caller (the
// mutation path is already serialized per graph); the WAL itself adds no
// locking.
type WAL struct {
	f       *os.File
	path    string
	noSync  bool
	failed  bool // a rollback could not restore the committed prefix
	size    int64
	lastSeq uint64
	records int64
	sync    func() error // fsync; a test seam for injecting sync failures
}

// OpenWAL opens (creating if absent) the WAL at path, scans it, truncates
// any torn or corrupt tail, and returns the log positioned for appends
// plus the surviving records. noSync disables the per-append fsync (tests
// and benchmarks only). Record payloads are copies, safe to retain.
func OpenWAL(path string, noSync bool) (*WAL, ScanResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ScanResult{}, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	if len(data) == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, ScanResult{}, err
		}
		if !noSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, ScanResult{}, err
			}
		}
		data = []byte(walMagic)
	}
	res, err := ScanRecords(data)
	if err != nil {
		f.Close()
		return nil, res, err
	}
	for i := range res.Records {
		res.Records[i].Payload = append([]byte(nil), res.Records[i].Payload...)
	}
	if res.Valid < int64(len(data)) {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, res, err
		}
	}
	if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
		f.Close()
		return nil, res, err
	}
	w := &WAL{f: f, path: path, noSync: noSync, size: res.Valid, records: int64(len(res.Records))}
	w.sync = f.Sync
	if n := len(res.Records); n > 0 {
		w.lastSeq = res.Records[n-1].Seq
	}
	return w, res, nil
}

// Append writes one record with the next sequence number and fsyncs
// before returning (unless the log was opened noSync). On a write or
// fsync error the file is truncated back to the last committed record so
// the log never carries an unacknowledged tail: were a failed-fsync
// frame left behind, the next successful Append would reuse its sequence
// number after it, and the recovery scan's monotonicity check would
// truncate the later, acknowledged batch. If the rollback itself fails,
// the WAL refuses every further append — acknowledging writes past an
// unremovable stale frame would corrupt the log.
func (w *WAL) Append(payload []byte) (seq uint64, err error) {
	if w.failed {
		return 0, fmt.Errorf("store: WAL %s unusable after a failed rollback", w.path)
	}
	seq = w.lastSeq + 1
	frame := make([]byte, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:], seq)
	copy(frame[walFrameHeader:], payload)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	if _, err := w.f.Write(frame); err != nil {
		w.rollback()
		return 0, err
	}
	if !w.noSync {
		if err := w.sync(); err != nil {
			w.rollback()
			return 0, err
		}
	}
	w.size += int64(len(frame))
	w.lastSeq = seq
	w.records++
	return seq, nil
}

// rollback rewinds the file to the last committed byte after a failed
// append, marking the log unusable if the rewind itself fails.
func (w *WAL) rollback() {
	if err := w.f.Truncate(w.size); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.failed = true
	}
}

// LastSeq returns the sequence number of the most recent record (0 when
// the log is empty).
func (w *WAL) LastSeq() uint64 { return w.lastSeq }

// AdvanceSeq raises the sequence floor so future appends number after
// seq. Recovery calls it with the snapshot epoch: a log emptied by Reset
// must not reissue sequence numbers the snapshot already covers, or
// replay would skip fresh records.
func (w *WAL) AdvanceSeq(seq uint64) {
	if seq > w.lastSeq {
		w.lastSeq = seq
	}
}

// ReadAfter returns the committed records with Seq > after, read back
// through the open file, and reports whether the log still covers after:
// it starts at its first record's seq − 1, or at LastSeq when it is
// empty, so a compaction past after leaves a gap only a snapshot can
// fill. Payloads alias a buffer read for this call; the log keeps no copy
// of itself in memory.
func (w *WAL) ReadAfter(after uint64) ([]Record, bool, error) {
	data := make([]byte, w.size)
	if _, err := w.f.ReadAt(data, 0); err != nil {
		return nil, false, err
	}
	res, err := ScanRecords(data)
	if err != nil {
		return nil, false, err
	}
	start := w.lastSeq
	if len(res.Records) > 0 {
		start = res.Records[0].Seq - 1
	}
	if after < start {
		return nil, false, nil
	}
	i := 0
	for i < len(res.Records) && res.Records[i].Seq <= after {
		i++
	}
	return res.Records[i:], true, nil
}

// Records returns how many records the log currently holds.
func (w *WAL) Records() int64 { return w.records }

// Size returns the log's byte length.
func (w *WAL) Size() int64 { return w.size }

// Reset truncates the log back to its header — called after a snapshot
// has folded every record in. Sequence numbers keep counting from where
// they were, so a crash between the snapshot rename and the reset is
// harmless: recovery skips records at or below the snapshot epoch.
func (w *WAL) Reset() error {
	base := int64(len(walMagic))
	if err := w.f.Truncate(base); err != nil {
		return err
	}
	if _, err := w.f.Seek(base, io.SeekStart); err != nil {
		return err
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.size = base
	w.records = 0
	return nil
}

// Sync forces an fsync — the graceful-shutdown flush for noSync logs.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close syncs and closes the log.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
