package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fill appends a representative record mix: two batches, votes for a
// slot, its decision, and its apply.
func fill(s *Store) {
	s.SaveBatch((1<<40)|1, []byte{0x01, 'a', 'b'})
	s.SaveBatch((3<<40)|1, []byte{0x01, 'c', 'd'})
	s.SaveVote(1, []byte{9, 9})
	s.SaveVote(1, []byte{9, 10}) // later transition supersedes
	s.SaveDecision(1, (1<<40)|1)
	s.SaveApplied(1, (1<<40)|1, []ClientSeq{{Client: 1, Seq: 1}, {Client: 2, Seq: 3}})
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Log) != 0 || len(st.Batches) != 0 || len(st.Votes) != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", st)
	}
	fill(s)
	// A replica has a window of slots open: votes of two of them, the
	// earlier one overwritten by a later transition, and a stale vote of
	// the slot fill() already applied.
	s.SaveVote(1, []byte{9})
	s.SaveVote(2, []byte{6})
	s.SaveVote(3, []byte{8})
	s.SaveVote(2, []byte{7})
	s.SaveDecision(2, (3<<40)|1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want := []int64{(1 << 40) | 1}; !reflect.DeepEqual(st2.Log, want) {
		t.Fatalf("log = %v, want %v", st2.Log, want)
	}
	if st2.Committed != 2 {
		t.Fatalf("committed = %d, want 2", st2.Committed)
	}
	if st2.HWM[1] != 1 || st2.HWM[2] != 3 {
		t.Fatalf("hwm = %v", st2.HWM)
	}
	if !bytes.Equal(st2.Batches[(1<<40)|1], []byte{0x01, 'a', 'b'}) ||
		!bytes.Equal(st2.Batches[(3<<40)|1], []byte{0x01, 'c', 'd'}) {
		t.Fatalf("batches = %v", st2.Batches)
	}
	if want := map[uint64][]byte{2: {7}, 3: {8}}; !reflect.DeepEqual(st2.Votes, want) {
		t.Fatalf("votes = %v, want %v", st2.Votes, want)
	}
	if st2.Decided[2] != (3<<40)|1 || len(st2.Decided) != 1 {
		t.Fatalf("decided = %v", st2.Decided)
	}
	if len(st2.Tail) != 1 || st2.Tail[0].Slot != 1 || len(st2.Tail[0].Fresh) != 2 {
		t.Fatalf("tail = %+v", st2.Tail)
	}
	if st2.AppSlots != 0 {
		t.Fatalf("appSlots = %d, want 0 (no snapshot)", st2.AppSlots)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(s)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	grown := s.LogBytes()

	snap := newState()
	snap.Log = []int64{(1 << 40) | 1}
	snap.Committed = 2
	snap.HWM[1], snap.HWM[2] = 1, 3
	snap.BatchSeq = 1
	snap.Batches[(3<<40)|1] = []byte{0x01, 'c', 'd'}
	snap.AppState = []byte("app-v1")
	if err := s.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if s.LogBytes() >= grown {
		t.Fatalf("snapshot did not truncate the log: %d >= %d", s.LogBytes(), grown)
	}
	// Post-snapshot records land in the fresh log.
	s.SaveDecision(2, (3<<40)|1)
	s.SaveApplied(2, (3<<40)|1, []ClientSeq{{Client: 3, Seq: 1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want := []int64{(1 << 40) | 1, (3 << 40) | 1}; !reflect.DeepEqual(st.Log, want) {
		t.Fatalf("log = %v, want %v", st.Log, want)
	}
	if st.AppSlots != 1 || !bytes.Equal(st.AppState, []byte("app-v1")) {
		t.Fatalf("app snapshot = (%d, %q)", st.AppSlots, st.AppState)
	}
	if len(st.Tail) != 1 || st.Tail[0].Slot != 2 {
		t.Fatalf("tail = %+v, want the one post-snapshot apply", st.Tail)
	}
	if st.Committed != 3 || st.HWM[3] != 1 || st.BatchSeq != 1 {
		t.Fatalf("committed=%d hwm=%v batchSeq=%d", st.Committed, st.HWM, st.BatchSeq)
	}
}

// TestStaleLogReplaysIdempotently is the crash window between snapshot
// rename and log truncation: the whole pre-snapshot log replays over
// the new snapshot without changing the recovered state.
func TestStaleLogReplaysIdempotently(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(s)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	staleLog, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	snap := newState()
	snap.Log = []int64{(1 << 40) | 1}
	snap.Committed = 2
	snap.HWM[1], snap.HWM[2] = 1, 3
	if err := s.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate the crash: put the pre-snapshot log back.
	if err := os.WriteFile(filepath.Join(dir, "log"), staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want := []int64{(1 << 40) | 1}; !reflect.DeepEqual(st.Log, want) {
		t.Fatalf("log = %v, want %v (stale applies must be skipped)", st.Log, want)
	}
	if st.Committed != 2 || len(st.Tail) != 0 {
		t.Fatalf("committed=%d tail=%+v, want 2 and no tail", st.Committed, st.Tail)
	}
	// Stale batch records re-add contents — harmless, more availability.
	if !bytes.Equal(st.Batches[(1<<40)|1], []byte{0x01, 'a', 'b'}) {
		t.Fatalf("batches = %v", st.Batches)
	}
}

// TestTornTailTruncated covers the kill -9 artifacts named by the
// issue: a torn final record, a flipped CRC, and a truncated length
// prefix all end the valid prefix cleanly, and Open cuts the file back
// to it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SaveDecision(1, 7)
	s.SaveApplied(1, 7, nil)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	good, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}

	// The first record's framed size, for cutting into the second.
	_, n, ok := nextRecord(good[len(logMagic):])
	if !ok {
		t.Fatal("self-check: first record unreadable")
	}
	mutate := map[string]func([]byte) []byte{
		"torn final record": func(b []byte) []byte { return b[:len(b)-3] },
		"flipped crc": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(logMagic)+n+4] ^= 0xff // the second record's CRC field
			return b
		},
		"truncated length prefix": func(b []byte) []byte {
			// Magic + first record + 2 bytes of the next header.
			return b[:len(logMagic)+n+2]
		},
	}

	for name, f := range mutate {
		t.Run(name, func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, "log"), f(good), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, st, err := Open(d, Options{})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer s2.Close()
			// Only the intact prefix survives; for these mutations that is
			// the decision record alone (the apply was damaged or cut).
			if len(st.Log) != 0 || st.Decided[1] != 7 {
				t.Fatalf("recovered %+v, want decision only", st)
			}
			fi, err := os.Stat(filepath.Join(d, "log"))
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(len(logMagic)+n) {
				t.Fatalf("file not truncated to valid prefix: %d", fi.Size())
			}
			// The store must be appendable after truncation.
			s2.SaveApplied(1, 7, nil)
			if err := s2.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSemanticCorruptionFails: records that pass their CRC but decode
// to nonsense (unknown kind, apply gap) are unexpected corruption and
// must fail Open rather than load a guess.
func TestSemanticCorruptionFails(t *testing.T) {
	t.Run("unknown kind", func(t *testing.T) {
		dir := t.TempDir()
		s, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		start := s.beginRecord()
		s.buf = append(s.buf, 99, 1, 2, 3)
		s.endRecord(start)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Fatal("unknown record kind did not fail recovery")
		}
	})
	t.Run("apply gap", func(t *testing.T) {
		dir := t.TempDir()
		s, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.SaveApplied(5, 7, nil) // slot 5 with nothing applied before it
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Fatal("apply gap did not fail recovery")
		}
	})
}

func TestStateCodecRoundTrip(t *testing.T) {
	st := newState()
	st.Log = []int64{(1 << 40) | 1, 0, (2 << 40) | 5}
	st.Committed = 11
	st.HWM[4] = 9
	st.BatchSeq = 5
	st.Batches[(2<<40)|5] = []byte("entries")
	st.Decided[4] = (1 << 40) | 2
	st.Votes[4] = []byte{1, 2}
	st.Votes[5] = []byte{3}
	st.AppState = []byte("sm")

	got := newState()
	if err := decodeState(appendState(nil, st), got); err != nil {
		t.Fatal(err)
	}
	st.Tail, got.Tail = nil, nil
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

// writeSnapshotFile frames body as the snapshot file of dir.
func writeSnapshotFile(t *testing.T, dir string, body []byte) {
	t.Helper()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
	raw := append(append(append([]byte{}, snapMagic...), hdr[:]...), body...)
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForeignSnapshotRefused: a snapshot whose layout byte is not this
// build's — 0, what builds before the slot window wrote with a single
// vote where the Votes list now is, or anything unknown — is refused
// with an error that names the byte, instead of being misparsed.
func TestForeignSnapshotRefused(t *testing.T) {
	st := newState()
	st.Log = []int64{(1 << 40) | 1, 0}
	st.Committed = 2
	st.HWM[7] = 2
	st.Votes[3] = []byte{1, 2}
	st.AppState = []byte("sm")

	for _, layout := range []byte{0, 7} {
		dir := t.TempDir()
		writeSnapshotFile(t, dir, appendState([]byte{layout}, st))
		want := fmt.Sprintf("snapshot layout %d", layout)
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("layout %d: err = %v, want %q named", layout, err, want)
		}
	}

	dir := t.TempDir()
	writeSnapshotFile(t, dir, appendState([]byte{snapLayout}, st))
	s, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("own layout refused: %v", err)
	}
	defer s.Close()
	if !reflect.DeepEqual(got.Votes, st.Votes) || got.AppSlots != 2 {
		t.Fatalf("state = %+v", got)
	}
}
