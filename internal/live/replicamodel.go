// Model-checker support for ReplicaCore: deep cloning (the checker
// forks a core per explored event) and a canonical state encoding (the
// checker's fingerprint for reachable-state dedup). A running slot's
// instance is copied through core.Recoverable and serialized through
// core.Persistent; every algorithm in this repo implements both. The
// production shell never calls these.

package live

import (
	"fmt"
	"maps"
	"sort"

	"heardof/internal/core"
)

// Clone deep-copies the core. The clone shares nothing mutable with the
// original: maps, slices, and every open slot's instance (via its
// core.Recoverable snapshot) are all duplicated. Batch and forward entry
// slices and restored vote encodings are shared — they are immutable
// after creation. The merge scratch is not state and starts empty.
func (c *ReplicaCore[C]) Clone() *ReplicaCore[C] {
	d := &ReplicaCore[C]{
		cfg:       c.cfg,
		pending:   append([]Entry[C](nil), c.pending...),
		unsent:    c.unsent,
		batches:   make(map[int64][]Entry[C], len(c.batches)),
		logRefs:   make(map[int64]int, len(c.logRefs)),
		offered:   make(map[int64]struct{}, len(c.offered)),
		decided:   make(map[uint64]int64, len(c.decided)),
		maxSeen:   make(map[uint64]uint64, len(c.maxSeen)),
		log:       append([]int64(nil), c.log...),
		logHash:   c.logHash,
		hwm:       make(map[uint64]uint64, len(c.hwm)),
		batchSeq:  c.batchSeq,
		seqFloor:  c.seqFloor,
		eagerPush: c.eagerPush,
		ownRound:  c.ownRound,

		batchSlot:     make(map[int64]uint64, len(c.batchSlot)),
		restoredVotes: make(map[uint64][]byte, len(c.restoredVotes)),
		peerApplied:   make(map[core.ProcessID]uint64, len(c.peerApplied)),
		prunedTo:      c.prunedTo,
		forwards:      append([][]Entry[C](nil), c.forwards...),
		mergedHigh:    make(map[uint64]uint64),
		newest:        make([]int64, c.cfg.N),
		carried:       make(map[uint64]uint64),
		stats:         c.stats,
	}
	for k, v := range c.batches {
		d.batches[k] = v
	}
	for k, v := range c.logRefs {
		d.logRefs[k] = v
	}
	for k, v := range c.batchSlot {
		d.batchSlot[k] = v
	}
	for k, v := range c.restoredVotes {
		d.restoredVotes[k] = v
	}
	for k := range c.offered {
		d.offered[k] = struct{}{}
	}
	for k, v := range c.decided {
		d.decided[k] = v
	}
	for k, v := range c.maxSeen {
		d.maxSeen[k] = v
	}
	for k, v := range c.hwm {
		d.hwm[k] = v
	}
	for k, v := range c.peerApplied {
		d.peerApplied[k] = v
	}
	for _, run := range c.open {
		d.open = append(d.open, c.cloneSlotRun(run))
	}
	return d
}

// cloneSlotRun deep-copies a running slot, restoring the instance from
// its recoverable snapshot.
func (c *ReplicaCore[C]) cloneSlotRun(s *slotRun) *slotRun {
	inst := c.cfg.Algorithm.NewInstance(c.cfg.Self, c.cfg.N, 0)
	rec, ok := inst.(core.Recoverable)
	src, ok2 := s.inst.(core.Recoverable)
	if !ok || !ok2 {
		panic(fmt.Sprintf("live: model checking requires a core.Recoverable algorithm, got %T", s.inst))
	}
	rec.Restore(src.Snapshot())
	d := newSlotRun(c.cfg.N, s.slot, inst, s.prop)
	d.r, d.target, d.heard, d.future = s.r, s.target, maps.Clone(s.heard), s.future.clone()
	return d
}

// clone deep-copies the buffered rounds (the messages are immutable).
func (b roundBuffer) clone() roundBuffer {
	d := make(roundBuffer, len(b))
	for r, fr := range b {
		d[r] = maps.Clone(fr)
	}
	return d
}

// AppendFingerprint appends a canonical encoding of the protocol state
// to dst, for the checker's reachable-state dedup. Two cores encode
// equal iff they are protocol-equivalent; service counters (Rounds,
// Committed, …) are deliberately excluded so paths that differ only in
// bookkeeping merge. logRefs is derivable from log, batches and prunedTo
// and is likewise omitted. The forward table and the unsent flag ARE
// state — the first feeds the next proposal, the second decides whether
// a step emits a forward — and so are the window's additions: every open
// run, which unapplied slot each batch id was proposed for (it decides
// what the pruner may drop), the votes recovery has yet to re-install,
// the rounds own runs decided in (they decide which late round message
// is answered). Leaving any of them out would merge states with different
// futures.
func (c *ReplicaCore[C]) AppendFingerprint(dst []byte) []byte {
	dst = appendVarint(dst, c.batchSeq)
	dst = appendUvarint(dst, c.eagerPush)
	dst = appendUvarint(dst, c.prunedTo)
	for _, own := range c.ownRound {
		dst = appendUvarint(dst, own.Slot)
		dst = appendUvarint(dst, uint64(own.Round))
	}
	slots := make([]uint64, 0, len(c.restoredVotes)+len(c.decided))
	for s := range c.restoredVotes {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	dst = appendUvarint(dst, uint64(len(slots)))
	for _, s := range slots {
		dst = appendUvarint(dst, s)
		dst = appendUvarint(dst, uint64(len(c.restoredVotes[s])))
		dst = append(dst, c.restoredVotes[s]...)
	}

	dst = appendUvarint(dst, uint64(len(c.log)))
	for _, bid := range c.log {
		dst = appendVarint(dst, bid)
	}

	dst = c.appendEntrySlice(dst, c.pending)
	if c.unsent {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, f := range c.forwards {
		dst = c.appendEntrySlice(dst, f)
	}

	bids := make([]int64, 0, len(c.batches))
	for bid := range c.batches {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	dst = appendUvarint(dst, uint64(len(bids)))
	for _, bid := range bids {
		dst = appendVarint(dst, bid)
		dst = c.appendEntrySlice(dst, c.batches[bid])
	}

	// Stamps at or below the applied log are dead: the pruner reads a
	// stamp only to compare it with the log length, which never shrinks.
	bids = bids[:0]
	for bid, slot := range c.batchSlot {
		if slot > uint64(len(c.log)) {
			bids = append(bids, bid)
		}
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	dst = appendUvarint(dst, uint64(len(bids)))
	for _, bid := range bids {
		dst = appendVarint(dst, bid)
		dst = appendUvarint(dst, c.batchSlot[bid])
	}

	bids = bids[:0]
	for bid := range c.offered {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	dst = appendUvarint(dst, uint64(len(bids)))
	for _, bid := range bids {
		dst = appendVarint(dst, bid)
	}

	slots = slots[:0]
	for s := range c.decided {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	dst = appendUvarint(dst, uint64(len(slots)))
	for _, s := range slots {
		dst = appendUvarint(dst, s)
		dst = appendVarint(dst, c.decided[s])
	}

	dst = appendU64Map(dst, c.maxSeen)
	dst = appendUvarint(dst, c.seqFloor)
	dst = appendU64Map(dst, c.hwm)

	dst = appendUvarint(dst, uint64(len(c.peerApplied)))
	pids := make([]int, 0, len(c.peerApplied))
	for p := range c.peerApplied {
		pids = append(pids, int(p))
	}
	sort.Ints(pids)
	for _, p := range pids {
		dst = appendUvarint(dst, uint64(p))
		dst = appendUvarint(dst, c.peerApplied[core.ProcessID(p)])
	}

	dst = appendUvarint(dst, uint64(len(c.open)))
	for _, run := range c.open {
		dst = appendUvarint(dst, run.slot)
		dst = appendVarint(dst, run.prop)
		dst = c.appendRun(dst, run)
	}
	return dst
}

// appendRun canonically encodes one open slot's round-driver state.
func (c *ReplicaCore[C]) appendRun(dst []byte, run *slotRun) []byte {
	// Frozen-window quotient: once the running round has reached the
	// MaxRound bound, its collection window never closes again (the
	// transition is refused by construction), so the heard set, jump
	// target, buffered future rounds, and the instance's own state are
	// all DEAD — no future behavior can read them. Only the slot number
	// stays live (a sync-delivered decision for it drops the run).
	// Encoding just the slot merges every heard/target/instance variant
	// of a frozen window into one state — without it, delivering round
	// messages into frozen windows multiplies the explored space by
	// each window's 2^(n-1) heard subsets, purely as noise.
	if c.cfg.MaxRound > 0 && run.r >= c.cfg.MaxRound {
		return append(dst, 2)
	}

	dst = append(dst, 1)
	dst = appendUvarint(dst, uint64(run.r))
	target := run.target
	if c.cfg.MaxRound > 0 && target > c.cfg.MaxRound {
		// Any target beyond the bound behaves identically (closed() only
		// asks whether it exceeds the current round).
		target = c.cfg.MaxRound
	}
	dst = appendUvarint(dst, uint64(target))
	dst = run.inst.(core.Persistent).AppendState(dst)
	dst = c.appendHeard(dst, run.heard)
	// Future rounds at or past the bound merge into a frozen window if
	// ever entered: dead for the same reason.
	return c.appendRounds(dst, run.future, c.cfg.MaxRound)
}

// appendRounds canonically encodes buffered rounds, those at or past a
// nonzero bound left out.
func (c *ReplicaCore[C]) appendRounds(dst []byte, b roundBuffer, bound core.Round) []byte {
	rounds := make([]int, 0, len(b))
	for r := range b {
		if bound == 0 || r < bound {
			rounds = append(rounds, int(r))
		}
	}
	sort.Ints(rounds)
	dst = appendUvarint(dst, uint64(len(rounds)))
	for _, r := range rounds {
		dst = appendUvarint(dst, uint64(r))
		dst = c.appendHeard(dst, b[core.Round(r)])
	}
	return dst
}

// appendEntrySlice canonically encodes an entry slice via the batch codec.
func (c *ReplicaCore[C]) appendEntrySlice(dst []byte, entries []Entry[C]) []byte {
	b := c.cfg.Batch.AppendEntries(nil, entries)
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendHeard canonically encodes one round's heard map via the message
// codec.
func (c *ReplicaCore[C]) appendHeard(dst []byte, heard map[core.ProcessID]core.Message) []byte {
	pids := make([]int, 0, len(heard))
	for p := range heard {
		pids = append(pids, int(p))
	}
	sort.Ints(pids)
	dst = appendUvarint(dst, uint64(len(pids)))
	for _, p := range pids {
		dst = appendUvarint(dst, uint64(p))
		b, err := c.cfg.Msg.Encode(heard[core.ProcessID(p)])
		if err != nil {
			b = []byte("!enc")
		}
		dst = appendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// appendU64Map canonically encodes a uint64→uint64 map.
func appendU64Map(dst []byte, m map[uint64]uint64) []byte {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = appendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendUvarint(dst, k)
		dst = appendUvarint(dst, m[k])
	}
	return dst
}
