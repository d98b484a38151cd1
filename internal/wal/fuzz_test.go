package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the log replay path. The
// contract under fuzzing: never panic, never mis-frame (the reported
// valid prefix is within the input and replays deterministically), and
// on success never invent state a clean replay of the same prefix
// would not produce. The corpus is seeded with a real log capture plus
// the three kill -9 artifacts the issue names: a torn final record, a
// flipped CRC, and a truncated length prefix.
func FuzzWALDecode(f *testing.F) {
	dir := f.TempDir()
	s, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	fill(s)
	s.SaveVote(2, []byte{1, 2, 3})
	s.SaveDecision(2, (3<<40)|1)
	s.SaveApplied(2, (3<<40)|1, []ClientSeq{{Client: 2, Seq: 4}})
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	capture, err := os.ReadFile(filepath.Join(dir, "log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(capture)
	f.Add(capture[:len(capture)-5]) // torn final record
	flipped := append([]byte(nil), capture...)
	flipped[len(capture)-20] ^= 0x40
	f.Add(flipped) // corrupted body → CRC mismatch
	crcFlip := append([]byte(nil), capture...)
	crcFlip[len(logMagic)+4] ^= 0x01
	f.Add(crcFlip)                   // flipped CRC field of the first record
	f.Add(capture[:len(logMagic)+3]) // truncated length prefix
	f.Add([]byte{})
	f.Add([]byte("HOWAL\x01\x00\x00"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		st := newState()
		valid, err := replayLog(st, raw)
		if err != nil {
			return // rejected as corrupt: fine, as long as it didn't panic
		}
		if valid < 0 || valid > int64(len(raw)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(raw))
		}
		// Replaying the accepted prefix alone must reproduce the result
		// (what Open's truncation relies on).
		st2 := newState()
		valid2, err2 := replayLog(st2, raw[:valid])
		if err2 != nil || valid2 != valid {
			t.Fatalf("prefix replay diverged: valid %d→%d err=%v", valid, valid2, err2)
		}
		if len(st2.Log) != len(st.Log) || st2.Committed != st.Committed {
			t.Fatalf("prefix replay state diverged: %+v vs %+v", st2, st)
		}
		// The applied log must never contain gaps relative to the tail.
		for i, ap := range st.Tail {
			if ap.Slot != uint64(len(st.Log)-len(st.Tail)+i+1) {
				t.Fatalf("tail slot %d out of order in %+v", ap.Slot, st.Tail)
			}
		}
	})
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot state
// decoder (reachable through a CRC-valid snapshot file).
func FuzzSnapshotDecode(f *testing.F) {
	st := newState()
	st.Log = []int64{(1 << 40) | 1, 0}
	st.Committed = 3
	st.HWM[1] = 2
	st.BatchSeq = 1
	st.Batches[(1<<40)|1] = []byte{0x01, 'a'}
	st.Decided[3] = (2 << 40) | 1
	st.Votes[3] = []byte{5}
	st.Votes[4] = []byte{6, 7}
	st.AppState = []byte("sm")
	f.Add(appendState(nil, st))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		got := newState()
		if err := decodeState(raw, got); err != nil {
			return
		}
		// Accepted snapshots must re-encode decodably (not necessarily
		// byte-identical: e.g. Committed truncation is rejected above,
		// but map iteration is canonicalized by sorting).
		back := newState()
		if err := decodeState(appendState(nil, got), back); err != nil {
			t.Fatalf("re-encode of accepted snapshot rejected: %v", err)
		}
	})
}
