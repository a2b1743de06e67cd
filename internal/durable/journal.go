package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Journal is an append-only write-ahead log of opaque records. It is the
// durability substrate of the serve Scheduler: every job transition is
// appended before (or with) the in-memory state change, so a restarted
// process can replay the log and land in an equivalent state.
//
// On-disk layout inside the journal directory:
//
//	wal-00000001.log   segment files, monotonically numbered
//	wal-00000002.log
//	snapshot.snap      optional compaction point (atomic rename)
//	LOCK               held (flock) while the journal is open
//
// Each record is framed as
//
//	uint32 payload length | uint32 CRC32(seq ‖ payload) | uint64 seq | payload
//
// (little-endian). Sequence numbers increase by one per record across
// segment boundaries; the CRC covers the sequence so a frame spliced
// from another position cannot masquerade as valid. Recovery reads the
// longest valid record prefix: the first short, oversized, or
// CRC-mismatched frame ends replay — a torn tail from a crash is
// clipped, never propagated, and never a panic.
//
// Appends are buffered; Sync flushes and fsyncs. SyncEvery batches
// fsyncs (1 = sync every append). Records appended since the last sync
// can be lost on power cut — callers choose per record via Append vs
// AppendSync.
type Journal struct {
	dir  string
	opt  JournalOptions
	lock *os.File // nil where the platform has no flock

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	segIdx    uint64 // current segment number
	segBytes  int64  // bytes written to the current segment
	nextSeq   uint64
	unsynced  int  // records appended since the last fsync
	needFlush bool // buffered bytes not yet flushed to the file
	closed    bool
}

// JournalOptions tune durability/throughput trade-offs. Zero values
// select the defaults.
type JournalOptions struct {
	// SyncEvery fsyncs after every Nth Append (default 1: every record).
	// AppendSync ignores it and always syncs.
	SyncEvery int
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

const (
	// maxRecordBytes bounds a single record: larger appends fail, and a
	// larger length in a frame is treated as corruption during replay.
	maxRecordBytes = 16 << 20
	frameHeaderLen = 4 + 4 + 8 // length, crc, seq
	segPrefix      = "wal-"
	segSuffix      = ".log"
	snapshotName   = "snapshot.snap"
	lockName       = "LOCK"
	snapshotMagic  = "MNSNAP01"
)

// Replayed is what recovery hands back for one surviving record.
type Replayed struct {
	Seq     uint64
	Payload []byte
}

// RecoveryInfo summarizes what OpenJournal found on disk.
type RecoveryInfo struct {
	// Snapshot is the newest valid snapshot state, nil if none.
	Snapshot []byte
	// SnapshotSeq is the last sequence number the snapshot covers.
	SnapshotSeq uint64
	// Records are the valid records after the snapshot, in order.
	Records []Replayed
	// Torn counts segments whose tail was clipped at an invalid frame.
	Torn int
}

// OpenJournal opens (creating if needed) the journal in dir and recovers
// its contents: the newest valid snapshot plus every valid record after
// it. A torn or bit-flipped tail ends replay at the last valid record.
// New appends go to a fresh segment, so recovered garbage is never
// appended after.
//
// One journal directory has one writer: a second open while the first is
// live fails, naming the directory, because its compaction would delete
// the live segment. Close releases the directory.
func OpenJournal(dir string, opt JournalOptions) (_ *Journal, _ *RecoveryInfo, err error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: journal dir: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	j := &Journal{dir: dir, opt: opt, lock: lock}

	info := &RecoveryInfo{}
	snapPath := filepath.Join(dir, snapshotName)
	_, statErr := os.Stat(snapPath)
	snapFileExists := statErr == nil
	if state, seq, ok := readSnapshot(snapPath); ok {
		info.Snapshot, info.SnapshotSeq = state, seq
	}

	segs, maxIdx, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	lastSeq := info.SnapshotSeq
	first := true
	for _, seg := range segs {
		recs, torn := readSegment(filepath.Join(dir, seg))
		if torn {
			info.Torn++
		}
		for _, r := range recs {
			if r.Seq <= info.SnapshotSeq {
				continue // already folded into the snapshot
			}
			if first && info.Snapshot == nil && snapFileExists && r.Seq > lastSeq+1 {
				// A snapshot file exists but is unreadable: the missing
				// baseline explains the leading gap. Recover the suffix —
				// partial state beats none, and the caller sees Torn.
				info.Torn++
				lastSeq = r.Seq - 1
			}
			first = false
			if r.Seq != lastSeq+1 {
				// A mid-log gap means an earlier segment lost records;
				// nothing after the gap is trustworthy.
				obsJournalTorn.Inc()
				return finishOpen(j, info, lastSeq, maxIdx)
			}
			info.Records = append(info.Records, r)
			lastSeq = r.Seq
		}
		// A torn segment does not end replay by itself: recovery reuses
		// the clipped sequence numbers in a fresh segment, so a later
		// segment that continues at lastSeq+1 is legitimate. Anything
		// else trips the gap check above.
	}
	return finishOpen(j, info, lastSeq, maxIdx)
}

func finishOpen(j *Journal, info *RecoveryInfo, lastSeq, maxIdx uint64) (*Journal, *RecoveryInfo, error) {
	obsJournalReplayed.Add(uint64(len(info.Records)))
	j.nextSeq = lastSeq + 1
	j.segIdx = maxIdx + 1
	if err := j.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return j, info, nil
}

func segName(idx uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix)
}

func listSegments(dir string) (names []string, maxIdx uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: journal scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idxStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		idx, err := strconv.ParseUint(idxStr, 10, 64)
		if err != nil {
			continue
		}
		names = append(names, name)
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	sort.Strings(names) // zero-padded fixed width: lexical == numeric
	return names, maxIdx, nil
}

// readSegment returns the longest valid record prefix of one segment
// file and whether a tail was clipped. It never fails: unreadable means
// empty.
func readSegment(path string) (recs []Replayed, torn bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	off := 0
	for {
		if off == len(blob) {
			return recs, false // clean end
		}
		if len(blob)-off < frameHeaderLen {
			return recs, true
		}
		n := int(binary.LittleEndian.Uint32(blob[off:]))
		crc := binary.LittleEndian.Uint32(blob[off+4:])
		if n > maxRecordBytes || len(blob)-off-frameHeaderLen < n {
			return recs, true
		}
		body := blob[off+8 : off+frameHeaderLen+n] // seq ‖ payload
		if crc32.ChecksumIEEE(body) != crc {
			return recs, true
		}
		seq := binary.LittleEndian.Uint64(body)
		payload := append([]byte(nil), body[8:]...)
		recs = append(recs, Replayed{Seq: seq, Payload: payload})
		off += frameHeaderLen + n
	}
}

func (j *Journal) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.segIdx)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: journal segment: %w", err)
	}
	j.f = f
	if j.w == nil {
		j.w = bufio.NewWriterSize(f, 64<<10)
	} else {
		j.w.Reset(f)
	}
	j.segBytes = 0
	return nil
}

// Append writes one record, honoring the configured fsync batching, and
// returns its sequence number.
func (j *Journal) Append(payload []byte) (uint64, error) {
	return j.append(payload, false)
}

// AppendSync writes one record and forces it (and any batched
// predecessors) to stable storage before returning.
func (j *Journal) AppendSync(payload []byte) (uint64, error) {
	return j.append(payload, true)
}

func (j *Journal) append(payload []byte, forceSync bool) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds limit %d",
			len(payload), maxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("durable: journal is closed")
	}
	seq := j.nextSeq
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	h := crc32.NewIEEE()
	h.Write(hdr[8:16])
	h.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:], h.Sum32())
	if _, err := j.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := j.w.Write(payload); err != nil {
		return 0, err
	}
	j.nextSeq++
	j.segBytes += int64(frameHeaderLen + len(payload))
	j.unsynced++
	j.needFlush = true
	obsJournalAppends.Inc()
	obsJournalBytes.Add(uint64(frameHeaderLen + len(payload)))

	if forceSync || j.unsynced >= j.opt.SyncEvery {
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	}
	if j.segBytes >= j.opt.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes buffered records and fsyncs the current segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.needFlush {
		if err := j.w.Flush(); err != nil {
			return err
		}
		j.needFlush = false
	}
	if j.unsynced == 0 {
		return nil
	}
	sp := obsStartSpan(obsJournalFsync)
	err := j.f.Sync()
	sp.End()
	if err != nil {
		return err
	}
	j.unsynced = 0
	return nil
}

func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.segIdx++
	return j.openSegmentLocked()
}

// SnapshotAndCompact atomically persists state as the journal's new
// baseline and deletes every segment it covers. state must capture
// everything the already-appended records imply: after a successful
// compaction, recovery sees the snapshot plus only records appended
// afterwards.
func (j *Journal) SnapshotAndCompact(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("durable: journal is closed")
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	covered := j.nextSeq - 1

	var buf []byte
	buf = append(buf, snapshotMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], covered)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(state)))
	h := crc32.NewIEEE()
	h.Write(hdr[0:12])
	h.Write(state)
	binary.LittleEndian.PutUint32(hdr[12:], h.Sum32())
	buf = append(buf, hdr[:]...)
	buf = append(buf, state...)
	if err := WriteFileAtomic(filepath.Join(j.dir, snapshotName), buf, 0o644); err != nil {
		return err
	}
	obsSnapshots.Inc()
	obsSnapshotBytes.Add(uint64(len(state)))

	// The snapshot covers every appended record; retire all closed
	// segments and start fresh so the directory stays bounded.
	if err := j.f.Close(); err != nil {
		return err
	}
	segs, _, err := listSegments(j.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		_ = os.Remove(filepath.Join(j.dir, s))
	}
	_ = syncDir(j.dir)
	j.segIdx++
	return j.openSegmentLocked()
}

// readSnapshot loads and validates a snapshot file. Any damage — short
// file, bad magic, CRC mismatch — reads as "no snapshot".
func readSnapshot(path string) (state []byte, seq uint64, ok bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	if len(blob) < len(snapshotMagic)+16 || string(blob[:len(snapshotMagic)]) != snapshotMagic {
		return nil, 0, false
	}
	hdr := blob[len(snapshotMagic):]
	seq = binary.LittleEndian.Uint64(hdr[0:])
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	crc := binary.LittleEndian.Uint32(hdr[12:])
	body := hdr[16:]
	if len(body) != n {
		return nil, 0, false
	}
	h := crc32.NewIEEE()
	h.Write(hdr[0:12])
	h.Write(body)
	if h.Sum32() != crc {
		return nil, 0, false
	}
	return append([]byte(nil), body...), seq, true
}

// Close flushes, fsyncs, and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.lock.Close() // a nil lock (no flock here) closes as a no-op
	j.closed = true
	return err
}
