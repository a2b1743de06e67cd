package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opt JournalOptions) (*Journal, *RecoveryInfo) {
	t.Helper()
	j, info, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, info
}

// abandon releases j's directory lock the way the death of its process
// would, and leaves everything else as a crash leaves it: no flush, no
// close of the segment file.
func abandon(j *Journal) { j.lock.Close() }

func payloads(info *RecoveryInfo) []string {
	out := make([]string, 0, len(info.Records))
	for _, r := range info.Records {
		out = append(out, string(r.Payload))
	}
	return out
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, info := openT(t, dir, JournalOptions{})
	if info.Snapshot != nil || len(info.Records) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", info)
	}
	want := []string{"accepted j1", "started j1", "done j1", "accepted j2"}
	for _, p := range want {
		if _, err := j.AppendSync([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, info2 := openT(t, dir, JournalOptions{})
	defer j2.Close()
	got := payloads(info2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %q != %q", i, got[i], want[i])
		}
		if info2.Records[i].Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, info2.Records[i].Seq, i+1)
		}
	}
}

// An unclosed journal (simulated crash) must still replay everything
// that was synced.
func TestJournalCrashWithoutClose(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	for i := 0; i < 10; i++ {
		if _, err := j.AppendSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the *os.File is simply abandoned, as in a crash. The
	// bytes are on disk because every append synced.
	abandon(j)
	_, info := openT(t, dir, JournalOptions{})
	if len(info.Records) != 10 {
		t.Fatalf("replayed %d records after crash, want 10", len(info.Records))
	}
}

// TestJournalSingleWriter: a second open of a live journal directory is
// refused, naming the directory (its boot compaction would delete the
// live segment), and Close hands the directory to the next opener.
func TestJournalSingleWriter(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	if j.lock == nil {
		j.Close()
		t.Skip("no flock on this platform")
	}
	if _, err := j.AppendSync([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if j2, _, err := OpenJournal(dir, JournalOptions{}); err == nil {
		j2.Close()
		t.Fatal("second open of a live journal succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("refusal %q does not name the directory", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j3, info := openT(t, dir, JournalOptions{})
	defer j3.Close()
	if got := payloads(info); len(got) != 1 || got[0] != "live" {
		t.Fatalf("reopen after Close replayed %q", got)
	}
}

func TestJournalTornTailClipped(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	for i := 0; i < 5; i++ {
		if _, err := j.AppendSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Append garbage to the tail of the newest segment: a torn frame.
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, s := range segs {
		if fi, err := os.Stat(filepath.Join(dir, s)); err == nil && fi.Size() > 0 {
			seg = s
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, seg), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // shorter than a frame header
	f.Close()

	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if len(info.Records) != 5 {
		t.Fatalf("torn tail: replayed %d, want 5", len(info.Records))
	}
	if info.Torn != 1 {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	// The journal must keep accepting appends with continuing sequence.
	seq, err := j2.AppendSync([]byte("after-torn"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after torn recovery got seq %d, want 6", seq)
	}
}

// TestJournalRecordBound: a record one byte over maxRecordBytes is
// refused on append without taking a sequence number, and on replay a
// frame whose length field exceeds the bound ends the segment as torn
// even when its bytes and CRC are otherwise valid; the records before
// it survive.
func TestJournalRecordBound(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	for i := 0; i < 3; i++ {
		if _, err := j.AppendSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.AppendSync(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("append one byte over the record bound succeeded")
	}
	j.Close()

	// frame is one record as append lays it out: length, CRC32(seq ‖
	// payload), seq, payload.
	frame := func(seq uint64, payload []byte) []byte {
		b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint64(b[8:], seq)
		b = append(b, payload...)
		binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:]))
		return b
	}
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[0]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built frame inside the bound replays (so the layout is
	// right); the same construction one byte over it is clipped.
	f.Write(frame(4, []byte("rec-3")))
	f.Write(frame(5, make([]byte, maxRecordBytes+1)))
	f.Close()

	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if got := payloads(info); strings.Join(got, ",") != "rec-0,rec-1,rec-2,rec-3" {
		t.Fatalf("replayed %q, want rec-0..rec-3", got)
	}
	if info.Torn != 1 {
		t.Fatalf("oversized frame not reported torn: Torn = %d", info.Torn)
	}
	if seq, err := j2.AppendSync([]byte("after")); err != nil || seq != 5 {
		t.Fatalf("append after the clipped frame: seq %d, err %v; want seq 5", seq, err)
	}
}

func TestJournalBitFlipClipsFromFlip(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	for i := 0; i < 8; i++ {
		if _, err := j.AppendSync(bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	blob, _ := os.ReadFile(path)
	blob[len(blob)-10] ^= 0x40 // flip a bit inside the last record
	os.WriteFile(path, blob, 0o644)

	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if len(info.Records) != 7 {
		t.Fatalf("bit flip in record 8: replayed %d, want 7", len(info.Records))
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if _, err := j.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _, _ := listSegments(dir)
	if len(segs) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if len(info.Records) != 50 {
		t.Fatalf("replayed %d across segments, want 50", len(info.Records))
	}
	for i, r := range info.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("seq discontinuity at %d: %d", i, r.Seq)
		}
	}
}

func TestJournalSnapshotAndCompact(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	for i := 0; i < 20; i++ {
		if _, err := j.AppendSync([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.SnapshotAndCompact([]byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.AppendSync([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if string(info.Snapshot) != "state-at-20" {
		t.Fatalf("snapshot payload %q", info.Snapshot)
	}
	if info.SnapshotSeq != 20 {
		t.Fatalf("snapshot seq %d, want 20", info.SnapshotSeq)
	}
	if got := payloads(info); len(got) != 3 || got[0] != "post-0" {
		t.Fatalf("post-snapshot records: %v", got)
	}
	// Compaction must actually bound the directory: pre-snapshot
	// segments are gone.
	segs, _, _ := listSegments(dir)
	for _, s := range segs {
		recs, _ := readSegment(filepath.Join(dir, s))
		for _, r := range recs {
			if r.Seq <= 20 {
				t.Fatalf("segment %s still holds covered seq %d", s, r.Seq)
			}
		}
	}
}

func TestJournalCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{})
	j.AppendSync([]byte("a"))
	j.SnapshotAndCompact([]byte("good"))
	j.AppendSync([]byte("b"))
	j.Close()

	path := filepath.Join(dir, snapshotName)
	blob, _ := os.ReadFile(path)
	blob[len(blob)-1] ^= 0xff
	os.WriteFile(path, blob, 0o644)

	j2, info := openT(t, dir, JournalOptions{})
	defer j2.Close()
	if info.Snapshot != nil {
		t.Fatalf("corrupt snapshot was accepted: %q", info.Snapshot)
	}
	// Post-snapshot records are still recovered (seq gap tolerated
	// because the baseline is gone, not torn).
	if len(info.Records) == 0 {
		t.Fatal("no records recovered after snapshot corruption")
	}
}

func TestJournalFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, JournalOptions{SyncEvery: 8})
	for i := 0; i < 20; i++ {
		if _, err := j.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, info := openT(t, dir, JournalOptions{})
	if len(info.Records) != 20 {
		t.Fatalf("batched appends lost: %d/20", len(info.Records))
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	payload := bytes.Repeat([]byte("weights"), 100)
	if err := WriteCheckpoint(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("checkpoint payload mismatch")
	}

	blob, _ := os.ReadFile(path)
	blob[20] ^= 0x01
	os.WriteFile(path, blob, 0o644)
	if _, err := ReadCheckpoint(path); err != ErrCorrupt {
		t.Fatalf("corrupt checkpoint read: err=%v, want ErrCorrupt", err)
	}

	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: err=%v, want not-exist", err)
	}
}

func TestWriteFileAtomicReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileAtomic(path, []byte("first version, long"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "v2" {
		t.Fatalf("content %q", got)
	}
	// No temp litter.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("directory litter: %v", entries)
	}
}
