// Package wal is the per-replica durability layer: an append-only,
// CRC-framed, fsync-batched write-ahead log of protocol facts a replica
// cannot afford to re-derive — disseminated batch contents, locked-vote
// instance state, decided slots, and applied (client,seq) high-water
// marks — plus periodic whole-state snapshots that truncate the log.
//
// The paper's fault model is crash-RECOVERY: a process loses its
// volatile round position but keeps stable storage. This package IS
// that stable storage for internal/live replicas. The contract with
// the shell (live.Replica) is write-ahead at wakeup granularity: every
// Save* issued by the core steps of one event-loop wakeup is made
// durable by one Sync() before any envelope of those steps is
// transmitted or any waiter acknowledged, so no external observer can
// ever have seen state this log does not hold. Quorum-durable dissemination falls out of the same barrier — a
// batch body is on its proposer's disk before the batch id appears in
// any proposal.
//
// On-disk layout under one directory (one replica × one group):
//
//	log       magic ∥ record*      (the write-ahead log)
//	snapshot  magic ∥ one record   (the latest full-state snapshot)
//
// where record = [uint32 LE body length][uint32 LE CRC32-C(body)][body]
// and body = kind byte ∥ payload. Recovery reads snapshot (if any),
// then replays log records in order, idempotently: records older than
// the snapshot are skipped by slot comparison, so a crash between
// snapshot rename and log truncation is harmless. A torn or
// CRC-corrupt record ends the valid prefix — replay stops cleanly at
// the last intact record and Open truncates the tail (the expected
// kill -9 artifact). A record that passes its CRC but fails to decode,
// or that implies a gap in the applied log, is unexpected corruption
// and fails Open instead of silently loading a guess.
//
// A Store is not goroutine-safe: the replica shell serializes all
// access under its own mutex (Save*/Sync/Snapshot run on the event
// loop; Close after Stop).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ClientSeq is one applied session-dedup advancement: client's applied
// high-water mark rose to Seq.
type ClientSeq struct {
	Client uint64
	Seq    uint64
}

// Apply is one applied slot recovered from the log tail (after the
// snapshot), with the (client,seq) pairs that were fresh at apply time
// — exactly what the application layer must re-apply to catch its
// state machine up to the protocol log.
type Apply struct {
	Slot  uint64
	Bid   int64
	Fresh []ClientSeq
}

// State is a replica's durable protocol state: what Open recovers and
// what Snapshot persists. Zero-valued fields mean a fresh replica.
type State struct {
	// Log holds the applied decisions: Log[i] is the batch id slot i+1
	// decided (0 = no-op).
	Log []int64
	// Committed counts commands applied exactly-once over the whole
	// history (the cross-node ReplicaStats.Committed invariant).
	Committed int
	// HWM is the per-client applied high-water mark after Log.
	HWM map[uint64]uint64
	// BatchSeq is the proposer's own batch counter at snapshot time;
	// restart must resume above it or batch ids would collide.
	BatchSeq int64
	// Batches holds retained batch contents (encoded entries) by id.
	Batches map[int64][]byte
	// Decided maps decided-but-unapplied slots to their batch ids.
	Decided map[uint64]int64
	// Votes holds the newest persisted consensus-instance state (the
	// locked vote, in the algorithm's canonical encoding) of every slot
	// that was open — a replica runs a window of slots at once — and had
	// not applied. Entries for decided slots are stale.
	Votes map[uint64][]byte
	// AppSlots is the applied-slot count the AppState snapshot covers;
	// Tail lists the applies recovered from the log beyond it, in
	// order, for the shell to replay through its Apply hook.
	AppSlots uint64
	AppState []byte
	Tail     []Apply
}

// newState returns a fresh (empty) State with its maps allocated.
func newState() *State {
	return &State{
		HWM:     make(map[uint64]uint64),
		Batches: make(map[int64][]byte),
		Decided: make(map[uint64]int64),
		Votes:   make(map[uint64][]byte),
	}
}

// Record kinds (first body byte).
const (
	recBatch    = 1 // varint bid ∥ contents
	recVote     = 2 // uvarint slot ∥ instance state
	recDecision = 3 // uvarint slot ∥ varint bid
	recApply    = 4 // uvarint slot ∥ varint bid ∥ uvarint count ∥ (uvarint client ∥ uvarint seq)*
)

var (
	logMagic  = []byte("HOWAL\x01\x00\x00")
	snapMagic = []byte("HOSNAP\x01")
)

// snapLayout is the first body byte of the snapshot file's one record:
// it names the State encoding that follows. Builds before the slot
// window wrote 0 (a single vote where the Votes list now is); such a
// snapshot is refused by name rather than read — a data directory is
// not upgraded in place across that change.
const snapLayout = 1

// maxRecord bounds one record body; larger length prefixes are treated
// as corruption (live batch frames are capped well below this).
const maxRecord = 1 << 22

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tune a Store.
type Options struct {
	// NoSync skips fsync on Sync and Snapshot (buffered writes still
	// flush to the OS). For benchmarks and tests measuring the fsync
	// tax; crash durability is off.
	NoSync bool
}

// Store is one replica's open durability directory. It is not
// goroutine-safe: the owning replica's dispatch loop is the single
// writer, and Close must happen-after the replica has stopped (stop
// the replica, then close its store).
type Store struct {
	dir      string
	opt      Options
	f        *os.File // the log, open for append
	buf      []byte   // pending appended records, flushed by Sync
	dirty    bool     // records appended since the last fsync
	logBytes int64    // current log file length incl. buffered
	err      error    // sticky first failure
}

// Open recovers the durable state under dir (creating it if needed)
// and returns the store open for appending. The returned State is
// zero-valued for a fresh directory. A torn log tail is truncated;
// deeper corruption fails.
func Open(dir string, opt Options) (*Store, *State, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := newState()
	if err := readSnapshot(filepath.Join(dir, "snapshot"), st); err != nil {
		return nil, nil, err
	}
	logPath := filepath.Join(dir, "log")
	raw, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	valid, rerr := replayLog(st, raw)
	if rerr != nil {
		return nil, nil, fmt.Errorf("wal: %s: %w", logPath, rerr)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if len(raw) == 0 {
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, nil, err
		}
		valid = int64(len(logMagic))
	} else if valid < int64(len(raw)) {
		// Torn tail from the crash this recovery is for: cut it so new
		// records never interleave with garbage.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Store{dir: dir, opt: opt, f: f, logBytes: valid}, st, nil
}

// ---------------------------------------------------------------------
// Appending.

// errRecordTooBig is the sticky failure for a record body over
// maxRecord (a sentinel, not a formatted error: the append path is
// pinned zero-alloc and the size that overflowed is gone anyway —
// replay treats oversized length prefixes as the torn tail).
var errRecordTooBig = errors.New("wal: record body exceeds maxRecord")

// beginRecord reserves an 8-byte frame header at the tail of the
// write buffer and returns the offset where the record body starts;
// the caller appends the body in place and seals it with endRecord.
// Framing directly into s.buf keeps the Save* path allocation-free
// (the buffer's growth is amortized across records).
func (s *Store) beginRecord() int {
	s.buf = append(s.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return len(s.buf)
}

// endRecord seals the record begun at start, filling the reserved
// header with the body's length and checksum; an oversized body rolls
// the whole frame back and sticks errRecordTooBig.
func (s *Store) endRecord(start int) {
	body := s.buf[start:]
	if len(body) > maxRecord {
		s.buf = s.buf[:start-8]
		s.err = errRecordTooBig
		return
	}
	binary.LittleEndian.PutUint32(s.buf[start-8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(s.buf[start-4:], crc32.Checksum(body, crcTable))
	s.logBytes += int64(8 + len(body))
	s.dirty = true
}

// SaveBatch logs a disseminated batch's contents (encoded entries).
// The bytes are copied; callers may reuse the slice.
//
//holint:hotpath
func (s *Store) SaveBatch(bid int64, contents []byte) {
	if s.err != nil {
		return
	}
	start := s.beginRecord()
	s.buf = append(s.buf, recBatch)
	s.buf = binary.AppendVarint(s.buf, bid)
	s.buf = append(s.buf, contents...)
	s.endRecord(start)
}

// SaveVote logs a running instance's state after a transition — the
// locked vote the paper's crash-recovery algorithm keeps in stable
// storage — under its slot: a replica has several slots open, and
// recovery keeps the newest record of each.
//
//holint:hotpath
func (s *Store) SaveVote(slot uint64, state []byte) {
	if s.err != nil {
		return
	}
	start := s.beginRecord()
	s.buf = append(s.buf, recVote)
	s.buf = binary.AppendUvarint(s.buf, slot)
	s.buf = append(s.buf, state...)
	s.endRecord(start)
}

// SaveDecision logs a decided-but-not-yet-applied slot.
//
//holint:hotpath
func (s *Store) SaveDecision(slot uint64, bid int64) {
	if s.err != nil {
		return
	}
	start := s.beginRecord()
	s.buf = append(s.buf, recDecision)
	s.buf = binary.AppendUvarint(s.buf, slot)
	s.buf = binary.AppendVarint(s.buf, bid)
	s.endRecord(start)
}

// SaveApplied logs one applied slot with its fresh (client,seq)
// advancements.
//
//holint:hotpath
func (s *Store) SaveApplied(slot uint64, bid int64, fresh []ClientSeq) {
	if s.err != nil {
		return
	}
	start := s.beginRecord()
	s.buf = append(s.buf, recApply)
	s.buf = binary.AppendUvarint(s.buf, slot)
	s.buf = binary.AppendVarint(s.buf, bid)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(fresh)))
	for _, cs := range fresh {
		s.buf = binary.AppendUvarint(s.buf, cs.Client)
		s.buf = binary.AppendUvarint(s.buf, cs.Seq)
	}
	s.endRecord(start)
}

// Sync makes every buffered record durable (the shell's sync-before-
// send barrier). A no-op when nothing was appended since the last call.
func (s *Store) Sync() error {
	if s.err != nil {
		return s.err
	}
	if !s.dirty {
		return nil
	}
	if _, err := s.f.Write(s.buf); err != nil {
		s.err = err
		return err
	}
	s.buf = s.buf[:0]
	if !s.opt.NoSync {
		if err := s.f.Sync(); err != nil {
			s.err = err
			return err
		}
	}
	s.dirty = false
	return nil
}

// LogBytes returns the current log length (snapshot-policy input).
func (s *Store) LogBytes() int64 { return s.logBytes }

// Err returns the sticky first failure, if any.
func (s *Store) Err() error { return s.err }

// Close flushes, syncs, and releases the log file.
func (s *Store) Close() error {
	if s.f == nil {
		return s.err
	}
	serr := s.Sync()
	cerr := s.f.Close()
	s.f = nil
	if s.err == nil {
		s.err = errors.New("wal: store closed")
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// ---------------------------------------------------------------------
// Snapshots.

// Snapshot atomically replaces the on-disk snapshot with st and
// truncates the log, bounding replay work and the batch-retention
// horizon by snapshot age. Crash-safe at every point: the snapshot is
// written to a temp file and renamed in, and a stale log replays
// idempotently over the new snapshot.
func (s *Store) Snapshot(st *State) error {
	if s.err != nil {
		return s.err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	body := appendState([]byte{snapLayout}, st)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))

	tmp := filepath.Join(s.dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.err = err
		return err
	}
	_, werr := f.Write(append(append(append([]byte{}, snapMagic...), hdr[:]...), body...))
	if werr == nil && !s.opt.NoSync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, filepath.Join(s.dir, "snapshot"))
	}
	if werr != nil {
		s.err = werr
		return werr
	}
	if !s.opt.NoSync {
		if d, derr := os.Open(s.dir); derr == nil {
			d.Sync() // best-effort: make the rename durable
			d.Close()
		}
	}
	// The log is now redundant up to st: truncate and restart it.
	if err := s.f.Truncate(0); err != nil {
		s.err = err
		return err
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		s.err = err
		return err
	}
	if _, err := s.f.Write(logMagic); err != nil {
		s.err = err
		return err
	}
	if !s.opt.NoSync {
		if err := s.f.Sync(); err != nil {
			s.err = err
			return err
		}
	}
	s.logBytes = int64(len(logMagic))
	return nil
}

// ---------------------------------------------------------------------
// Recovery: snapshot decode + log replay.

// readSnapshot loads the snapshot file into st (no-op if absent).
func readSnapshot(path string, st *State) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(raw) < len(snapMagic) || string(raw[:len(snapMagic)]) != string(snapMagic) {
		return fmt.Errorf("wal: %s: bad magic", path)
	}
	body, n, ok := nextRecord(raw[len(snapMagic):])
	if !ok || n != len(raw)-len(snapMagic) || len(body) == 0 {
		return fmt.Errorf("wal: %s: corrupt snapshot record", path)
	}
	if body[0] != snapLayout {
		return fmt.Errorf("wal: %s: snapshot layout %d, this build reads only layout %d (0 is a build from before the slot window; data directories are not upgraded in place)",
			path, body[0], snapLayout)
	}
	if err := decodeState(body[1:], st); err != nil {
		return fmt.Errorf("wal: %s: %w", path, err)
	}
	st.AppSlots = uint64(len(st.Log))
	return nil
}

// nextRecord frames one record off b: (body, bytes consumed, ok).
// !ok means b starts a torn or corrupt record — the valid prefix ends
// here.
func nextRecord(b []byte) ([]byte, int, bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b[0:])
	crc := binary.LittleEndian.Uint32(b[4:])
	if n > maxRecord || len(b) < int(8+n) {
		return nil, 0, false
	}
	body := b[8 : 8+n]
	if crc32.Checksum(body, crcTable) != crc {
		return nil, 0, false
	}
	return body, int(8 + n), true
}

// replayLog folds the log's records into st and returns the length of
// the valid prefix. A framing failure (torn tail) stops replay
// cleanly; a framed-but-undecodable record or an apply gap is an
// error.
func replayLog(st *State, raw []byte) (int64, error) {
	if len(raw) == 0 {
		return 0, nil
	}
	if len(raw) < len(logMagic) || string(raw[:len(logMagic)]) != string(logMagic) {
		return 0, errors.New("bad log magic")
	}
	off := len(logMagic)
	for off < len(raw) {
		body, n, ok := nextRecord(raw[off:])
		if !ok {
			break // torn tail: the valid prefix ends here
		}
		if err := applyRecord(st, body); err != nil {
			return 0, err
		}
		off += n
	}
	return int64(off), nil
}

// applyRecord folds one framed record into st, idempotently with
// respect to the snapshot it replays over.
func applyRecord(st *State, body []byte) error {
	if len(body) == 0 {
		return errors.New("empty record")
	}
	b := body[1:]
	switch body[0] {
	case recBatch:
		bid, n := binary.Varint(b)
		if n <= 0 || bid == 0 {
			return errors.New("corrupt batch record")
		}
		st.Batches[bid] = append([]byte(nil), b[n:]...)
	case recVote:
		slot, n := binary.Uvarint(b)
		if n <= 0 || slot == 0 {
			return errors.New("corrupt vote record")
		}
		if slot > uint64(len(st.Log)) { // later records carry newer state
			st.Votes[slot] = append([]byte(nil), b[n:]...)
		}
	case recDecision:
		slot, n1 := binary.Uvarint(b)
		bid, n2 := binary.Varint(b[n1:])
		if n1 <= 0 || n2 <= 0 || slot == 0 {
			return errors.New("corrupt decision record")
		}
		if slot > uint64(len(st.Log)) {
			if _, ok := st.Decided[slot]; !ok {
				st.Decided[slot] = bid
			}
		}
	case recApply:
		slot, n1 := binary.Uvarint(b)
		if n1 <= 0 || slot == 0 {
			return errors.New("corrupt apply record")
		}
		b = b[n1:]
		bid, n2 := binary.Varint(b)
		if n2 <= 0 {
			return errors.New("corrupt apply record")
		}
		b = b[n2:]
		count, n3 := binary.Uvarint(b)
		if n3 <= 0 || count > maxRecord/2 {
			return errors.New("corrupt apply record")
		}
		b = b[n3:]
		fresh := make([]ClientSeq, 0, count)
		for i := uint64(0); i < count; i++ {
			client, m1 := binary.Uvarint(b)
			if m1 <= 0 {
				return errors.New("corrupt apply record")
			}
			seq, m2 := binary.Uvarint(b[m1:])
			if m2 <= 0 {
				return errors.New("corrupt apply record")
			}
			b = b[m1+m2:]
			fresh = append(fresh, ClientSeq{Client: client, Seq: seq})
		}
		switch {
		case slot <= uint64(len(st.Log)):
			// Pre-snapshot record surviving an interrupted truncation.
		case slot == uint64(len(st.Log))+1:
			st.Log = append(st.Log, bid)
			delete(st.Decided, slot)
			delete(st.Votes, slot)
			for _, cs := range fresh {
				if cs.Seq > st.HWM[cs.Client] {
					st.HWM[cs.Client] = cs.Seq
				}
			}
			st.Committed += len(fresh)
			st.Tail = append(st.Tail, Apply{Slot: slot, Bid: bid, Fresh: fresh})
		default:
			return fmt.Errorf("apply gap: slot %d after %d applied", slot, len(st.Log))
		}
	default:
		return fmt.Errorf("unknown record kind %d", body[0])
	}
	return nil
}
