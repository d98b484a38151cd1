// The durability seam between ReplicaCore and internal/wal: the
// Persister interface the core notifies of every protocol fact that
// must survive a crash, and the recovery path that rebuilds a core
// from a recovered wal.State.
//
// Write-ahead discipline, enforced by the shell: every Save* a core
// step issues is made durable by a Persister.Sync() BEFORE any envelope
// of that step is transmitted or any submitter acknowledged. The
// barrier is per GROUP of steps: the shell steps every delivery queued
// at a wakeup, then syncs once, then lets the group's envelopes and
// acks out together — and skips the sync when the group produced
// neither, leaving its saves buffered for the next barrier (nothing
// un-synced is ever visible, because nothing of that group is).
// Since all externally visible behavior flows through envelopes and
// acks, no peer or client can ever have observed state the log does
// not hold — the paper's crash-RECOVERY model, round number on stable
// storage included (the end of this comment).
// Quorum-durable dissemination is a corollary: propose() saves a
// batch body in the same step that first sends its id, so by the
// time any replica can vote for the id, the contents are on the
// proposer's disk and a recovered proposer still serves pushes; a
// batch riding a round message or a push is saved in the step that hears
// it.
//
// What is persisted (and when):
//
//	SaveBatch     propose() and keepBatch(): batch contents at first sight
//	              (every id that can be DECIDED is minted by propose())
//	SaveVote      openSlot() and transitionRound(): the round about to be
//	              entered and the instance state (the locked vote) it
//	              sends from, when the slot opens — round 1's send
//	              already speaks: LastVoting's first coordinator VOTES in
//	              it — and after every undecided transition, under the
//	              slot it belongs to: a replica has a window of slots
//	              open, and recovery needs the vote of each
//	SaveDecision  recordDecision(): a slot's decided batch id
//	SaveApplied   applySlot(): the applied slot and its fresh (client,seq)
//	              advancements
//
// What is NOT: pending submissions (unacknowledged — clients retry) and
// therefore the forwards that advertise them, on either end (a
// KindForward is a hint about someone's pending queue: the sender
// re-derives it from that queue, the receiver only ever merges it into a
// batch that propose() saves as its own; what recovery owes them is
// only to never REUSE a sequence number a lost forward may have carried
// — see seqFloor in RestoreReplicaCore), peer commit-index
// observations (re-learned from traffic), which slot each held batch
// was proposed for (recovery assumes the furthest one a join allows),
// and heard sets.
//
// The round position IS persisted, with the vote: the paper's
// crash-recovery algorithms keep r_p on stable storage, so that no round
// is ever lived through twice, and the algorithms need exactly that —
// LastVoting's lock argument has a process that acked phase φ say ts ≥ φ
// in every LATER estimate, OneThirdRule's has a process say one value per
// round. (A slot reopened at round 1 would meet, among the old messages
// still in the network, votes below its lock and acks for phases it has
// since spoken past; guarding the algorithm's adoption rule does not
// cover the second. modelcheck's forget-round probes are those
// schedules.) A vote record is therefore (the round the saved state sends
// in, the state). Everything a step emits waits for the sync of that
// step's saves, so when the newest durable record says round r,
// round r's send may have left and no later one has: recovery resumes the
// slot by ENTERING round r+1, with r and everything below it skipped. To
// the group a skipped round is one in which this process was neither
// heard nor heard anybody — a transmission fault, which is what the HO
// model is for — and the jump rule re-aligns it from there. What stays
// volatile is the algorithm's per-phase bookkeeping: LastVoting restores
// as a coordinator that has neither committed nor is ready (it cannot
// vote or announce a decision for a phase it resumes in the middle of),
// and its first coordinator is born committed only in the incarnation
// that opened the slot, whose state openSlot saved before the vote left.

package live

import (
	"fmt"

	"heardof/internal/core"
	"heardof/internal/wal"
)

// Persister receives the core's durable protocol facts. wal.Store is
// the disk implementation; nil (in CoreConfig/ReplicaConfig) means
// volatile operation — the default, keeping every in-memory test and
// the model checker byte-identical to a persister-free build.
//
// Save* calls buffer; Sync makes everything buffered durable. The
// byte slices passed to SaveBatch/SaveVote are not retained. SaveVote's
// slot is the vote's identity: a replica runs a window of slots, and
// the newest state saved under each slot is that slot's vote.
type Persister interface {
	SaveBatch(bid int64, contents []byte)
	SaveVote(slot uint64, state []byte)
	SaveDecision(slot uint64, bid int64)
	SaveApplied(slot uint64, bid int64, fresh []wal.ClientSeq)
	Sync() error
	Snapshot(st *wal.State) error
}

var _ Persister = (*wal.Store)(nil)

// RestoreReplicaCore rebuilds a core from recovered durable state — the
// crash-RECOVERY transition. Everything stable returns: the applied
// log (and its hash, recomputed), session high-water marks, retained
// batches, decided-but-unapplied slots, the batch counter (so new
// batch ids never collide with durable pre-crash ones), and the newest
// vote state of every slot that was open, each re-installed into its
// slot's fresh instance when consensus for it reopens, past the round
// it last sent in. Everything volatile is gone: pending submissions, peer
// observations, heard sets.
func RestoreReplicaCore[C any](cfg CoreConfig[C], st *wal.State) (*ReplicaCore[C], error) {
	c, err := NewReplicaCore(cfg)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return c, nil
	}
	const fnvPrime = 1099511628211
	for i, bid := range st.Log {
		c.log = append(c.log, bid)
		c.logHash = (c.logHash ^ uint64(i+1)) * fnvPrime
		c.logHash = (c.logHash ^ uint64(bid)) * fnvPrime
	}
	for client, seq := range st.HWM {
		c.hwm[client] = seq
		c.maxSeen[client] = seq
	}
	c.stats.Committed = st.Committed
	for bid, enc := range st.Batches {
		if !c.validBatchID(bid) {
			return nil, fmt.Errorf("live: recovered state holds batch id %#x, which no member of a group of %d minted", bid, c.cfg.N)
		}
		entries, err := c.cfg.Batch.DecodeEntries(enc)
		if err != nil {
			return nil, fmt.Errorf("live: recovered batch %#x: %w", bid, err)
		}
		c.batches[bid] = entries
		// Own durable batches bound the sequence numbers this replica has
		// already packed: never hand a client a seq below them, or a
		// pre-crash batch deciding later would swallow the new command.
		for _, e := range entries {
			if e.Seq > c.maxSeen[e.Client] {
				c.maxSeen[e.Client] = e.Seq
			}
		}
	}
	for bid := range c.batches {
		if !c.batchApplied(bid) {
			// Re-offer every unapplied recovered batch — including our own:
			// their pending-queue provenance is volatile and gone, so being
			// merged into the next proposal (propose() reads the newest
			// offered batch of every proposer, self included) is how their
			// commands get committed without a client retry.
			c.offered[bid] = struct{}{}
		}
	}
	for _, bid := range c.log {
		if _, held := c.batches[bid]; held {
			c.logRefs[bid]++
		}
	}
	// Which slot a held batch was proposed for died with the crash, and a
	// peer may yet vote for its id: hold each as if proposed for the
	// furthest slot a join allowed. (Everything that made a proposal
	// of ours visible was synced after the applies before it, so the
	// recovered log is at least as long as the one it was proposed from.)
	for bid := range c.batches {
		c.proposedFor(bid, uint64(len(c.log))+2*window)
	}
	// Forwards are the one way a command leaves this replica with nothing
	// about it on disk, so a pre-crash (client, seq) may still sit in the
	// peers' forward tables — or already in their batches — bound to a
	// command this incarnation never heard of. Handing that number to a
	// new command would let the old one apply in its place and
	// acknowledge the new one's waiter. Skip past every number that can
	// be out there: a forward carries the first MaxBatch pending entries,
	// all above marks that were durable before it was sent, so none
	// exceeds the recovered mark (0 for an unknown client) + MaxBatch.
	c.seqFloor = uint64(c.cfg.MaxBatch)
	for client := range c.maxSeen {
		c.maxSeen[client] += c.seqFloor
	}
	c.batchSeq = st.BatchSeq
	for bid := range c.batches {
		if batchProposer(bid) == c.cfg.Self && batchCounter(bid) > c.batchSeq {
			c.batchSeq = batchCounter(bid)
		}
	}
	for slot, bid := range st.Decided {
		if slot > uint64(len(c.log)) {
			c.decided[slot] = bid
		}
	}
	applied := uint64(len(c.log))
	for slot, vote := range st.Votes {
		_, decided := c.decided[slot]
		switch {
		case slot > applied+2*window:
			return nil, fmt.Errorf("live: recovered vote for slot %d beyond the join range of %d slots after %d applied", slot, 2*window, applied)
		case slot <= applied || decided || len(vote) == 0:
			continue // stale
		}
		// Validate the encoding now (openSlot cannot return an error).
		probe := c.cfg.Algorithm.NewInstance(c.cfg.Self, c.cfg.N, 0)
		sp, ok := probe.(core.Persistent)
		if !ok {
			return nil, fmt.Errorf("live: algorithm %T cannot restore persisted votes", probe)
		}
		_, state, ok := splitVote(vote)
		if !ok {
			return nil, fmt.Errorf("live: recovered vote for slot %d: corrupt round", slot)
		}
		if err := sp.RestoreState(state); err != nil {
			return nil, fmt.Errorf("live: recovered vote for slot %d: %w", slot, err)
		}
		// The slot was mid-consensus: advance reopens it (and any slot
		// below it) even with nothing else queued, so the locked vote
		// re-enters the group's next attempt.
		c.restoredVotes[slot] = append([]byte(nil), vote...)
	}
	return c, nil
}

// PersistState projects the core's durable state — what a Persister
// that saw every Save* since birth would recover. Used for snapshots
// (with the shell adding the application state) and as the model
// checker's crash-recovery image. The application fields (AppSlots,
// AppState, Tail) are the shell's to fill.
func (c *ReplicaCore[C]) PersistState() *wal.State {
	st := &wal.State{
		Log:       append([]int64(nil), c.log...),
		Committed: c.stats.Committed,
		HWM:       make(map[uint64]uint64, len(c.hwm)),
		BatchSeq:  c.batchSeq,
		Batches:   make(map[int64][]byte, len(c.batches)),
		Decided:   make(map[uint64]int64, len(c.decided)),
		Votes:     make(map[uint64][]byte, len(c.open)+len(c.restoredVotes)),
	}
	for client, seq := range c.hwm {
		st.HWM[client] = seq
	}
	for bid, entries := range c.batches {
		st.Batches[bid] = c.cfg.Batch.AppendEntries(nil, entries)
	}
	for slot, bid := range c.decided {
		st.Decided[slot] = bid
	}
	for slot, vote := range c.restoredVotes {
		st.Votes[slot] = append([]byte(nil), vote...)
	}
	for _, run := range c.open {
		if sa, ok := run.inst.(core.Persistent); ok {
			st.Votes[run.slot] = sa.AppendState(appendUvarint(nil, uint64(run.r)))
		}
	}
	return st
}

// Recover returns the replica this core would restart as after a
// crash: its durable state reloaded, its volatile state lost. Because
// it is literally PersistState piped through RestoreReplicaCore, the
// model checker's crash-RECOVERY transition explores the same recovery
// code the production shell runs from disk.
func (c *ReplicaCore[C]) Recover() *ReplicaCore[C] {
	d, err := RestoreReplicaCore(c.cfg, c.PersistState())
	if err != nil {
		panic(fmt.Sprintf("live: self-recovery failed: %v", err))
	}
	return d
}

// EntriesOf returns a retained batch's entries (the shell's recovery
// path re-applies the log tail through them). The slice is shared;
// callers must not mutate it.
func (c *ReplicaCore[C]) EntriesOf(bid int64) ([]Entry[C], bool) {
	entries, ok := c.batches[bid]
	return entries, ok
}

// persistVote saves run's vote record — the round it is about to enter
// and the instance state that round's send speaks from: when its slot
// opens, and after every transition that left it undecided.
func (c *ReplicaCore[C]) persistVote(run *slotRun) {
	if c.cfg.Persist == nil {
		return
	}
	if sa, ok := run.inst.(core.Persistent); ok {
		c.voteBuf = sa.AppendState(appendUvarint(c.voteBuf[:0], uint64(run.r)+1))
		c.cfg.Persist.SaveVote(run.slot, c.voteBuf)
	}
}

// splitVote splits a vote record into the round its state sends in and
// the state.
func splitVote(b []byte) (sent core.Round, state []byte, ok bool) {
	r, n := uvarint(b)
	return core.Round(r), b[max(n, 0):], n > 0
}

// persistFresh extracts the fresh (client,seq) advancements of a
// step's applied entries, nil when no persister is configured.
func (c *ReplicaCore[C]) persistFresh(applied []AppliedEntry[C], from int) []wal.ClientSeq {
	if c.cfg.Persist == nil {
		return nil
	}
	var fresh []wal.ClientSeq
	for _, ae := range applied[from:] {
		if ae.Fresh {
			fresh = append(fresh, wal.ClientSeq{Client: ae.Entry.Client, Seq: ae.Entry.Seq})
		}
	}
	return fresh
}
