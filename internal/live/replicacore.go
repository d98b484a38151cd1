// ReplicaCore: the replica protocol as a pure step function. Everything
// that makes the live replica a PROTOCOL — the slot window (up to
// `window` consensus instances in flight, applied strictly in order),
// round-message delivery into each slot's instance (one that arrives a
// window early opens its slot: the replica joins it), command forwarding
// and merged proposals (every proposal carries every command its
// proposer has heard of, so a slot commits all replicas' work whichever
// proposal wins), batch dissemination, push/pull decision sync (a push
// carries the batch of every slot it names),
// apply-side (client,seq) dedup, and batch GC against the
// min-peer-applied horizon — lives here as
//
//	state × event → state′ × outbound envelopes × applied entries
//
// with no goroutines, channels, clocks, or I/O. Two consumers drive it:
//
//   - Replica (replica.go), the production shell: one goroutine feeds
//     transport deliveries, round-timeout fires, and heartbeat ticks in
//     as events, sends the returned envelopes, and resolves waiters for
//     the returned applied entries. Real time exists only there.
//   - The exhaustive model checker (internal/modelcheck), which clones
//     cores, enumerates every interleaving of the same events over a
//     message soup, and checks safety invariants on each reachable
//     state. Because both run THIS code, what the checker verifies is
//     the deployed protocol, not a hand-written model of it.
//
// Within one Step the core self-drives to a local fixpoint: any event
// may unblock applying decided slots, which slides the window and may
// let the core open further slots, which may (for n=1 or a jumped
// backlog) close rounds immediately. Events are therefore coarse
// "something happened" edges; the core owns all protocol sequencing.

package live

import (
	"errors"
	"fmt"

	"heardof/internal/core"
)

// Mutation re-introduces a previously fixed protocol bug, for the model
// checker's seeded-mutant suite (DESIGN.md §10): each mutant must make
// the checker report a violation, proving the checker would have caught
// the original bug. Production configurations MUST leave this zero;
// NewReplica rejects anything else. (The two crash-recovery mutants are
// not here: a recovery that forgets is a disk that lies, and the checker
// builds that outside the core — modelcheck's forget-vote and
// forget-round mutants edit the state RestoreReplicaCore is handed.)
type Mutation uint16

const (
	// MutFreshRetry restarts an undecided slot with a fresh instance
	// after retryAfter rounds — the pre-PR-5-review bug that discarded
	// LastVoting's locked vote (x_p, ts_p) and let a second attempt
	// decide differently from a first-attempt decision it never saw.
	MutFreshRetry Mutation = 1 << iota
	// MutNoJump disables the jump rule (see node.go): a process never
	// closes a round early on observing a peer beyond it. Two survivors
	// of a larger group can then drift a constant number of rounds apart
	// forever — the livelock the jump rule was introduced to fix.
	MutNoJump
	// MutMergeSkip makes propose()'s merge drop the first unapplied entry
	// of every peer-sourced piece (a forward or an offered batch) while
	// keeping the entries behind it — the session-order bug the merge
	// rules exist to exclude: the later sequence number applies, the
	// high-water mark passes the skipped one, and that command is lost
	// without ever applying (its waiter hangs).
	MutMergeSkip
	// MutWindowDisjoint makes a proposal leave out every command an open
	// proposal of this replica already carries — disjoint chunks per
	// slot instead of overlapping ones. If the earlier slot then decides
	// somebody else's batch, the later one applies a session's seq s+1
	// while s never committed: the same lost command as MutMergeSkip,
	// reached through the slot window.
	MutWindowDisjoint
	// MutPruneOpen drops the retention rule for proposals of unapplied
	// slots: a batch whose entries all applied through an overlapping
	// batch is pruned although a slot it was proposed for can still
	// decide it — and then decides an id whose contents nobody holds.
	MutPruneOpen
)

// retryAfter is MutFreshRetry's trigger: long enough that a retried
// LastVoting phase (rounds 4–7) can complete before the next restart,
// short enough that a dozen starved rounds reach it.
const retryAfter core.Round = 10

// window is how many slots a replica keeps in flight: slots
// applied+1 … applied+window may have a running instance, so a command
// accepted while a slot runs rides the next one at once instead of
// waiting the running one out. One constant, chosen from the committed
// sweep in EXPERIMENTS.md ("Perf trajectory (PR 13)"): deeper windows
// mostly split the same commands over more slots, and every slot costs
// a durable replica its syncs.
const window = 2

// CoreConfig parameterizes one process's protocol core. It is the
// protocol subset of ReplicaConfig: no transport, no timeouts, no apply
// hook — those belong to the shell driving the core.
type CoreConfig[C any] struct {
	// Self and N identify this process within the group's n processes.
	Self core.ProcessID
	N    int
	// Algorithm decides each slot; Msg is its wire codec.
	Algorithm core.Algorithm
	Msg       Codec
	// Batch serializes command batches.
	Batch BatchCodec[C]
	// MaxBatch caps commands per proposal (default 64).
	MaxBatch int

	// Persist, when non-nil, receives every protocol fact that must be
	// durable (see persist.go). The core only buffers saves; the shell
	// owns the Sync barrier. Nil means volatile operation.
	Persist Persister

	// Mutation re-enables a seeded protocol bug (model checker only).
	Mutation Mutation

	// MaxRound, when nonzero, freezes a slot's round progression at that
	// round: the collection window of round MaxRound never closes. This
	// is a model-checking bound (rounds are unbounded in production —
	// the checker needs a finite state space) and must be zero in the
	// shell.
	MaxRound core.Round
	// MaxSlots, when nonzero, stops the core from STARTING consensus for
	// slots beyond it (externally decided slots still apply). A model
	// bound like MaxRound; zero in the shell.
	MaxSlots uint64
}

// EventKind discriminates core events.
type EventKind uint8

const (
	// EvEnvelope delivers one inbound transport envelope.
	EvEnvelope EventKind = iota + 1
	// EvSubmit accepts a local command under a client session.
	EvSubmit
	// EvRoundTimeout closes the collection window of the round Event.Slot
	// is running (the shell's deadline for that slot passed; the checker
	// schedules it freely). A slot that is no longer open ignores it.
	EvRoundTimeout
	// EvTick is the idle anti-entropy edge: probe peers for decisions
	// while no slot runs.
	EvTick
	// EvNudge carries no input; it just lets the core re-run its
	// advance fixpoint (used by the shell after Submit registered work).
	EvNudge
)

// Event is one core input.
type Event[C any] struct {
	Kind EventKind
	// Env is EvEnvelope's payload.
	Env Envelope
	// Slot is EvRoundTimeout's payload: the open slot whose round timed out.
	Slot uint64
	// Client, Seq, Cmd are EvSubmit's payload.
	Client, Seq uint64
	Cmd         C
}

// Outbound is one envelope the step wants transmitted. To == AllPeers
// broadcasts to every process but self.
type Outbound struct {
	To  core.ProcessID
	Env Envelope
}

// AllPeers broadcasts an outbound envelope to the whole group.
const AllPeers = core.ProcessID(-1)

// AppliedEntry reports one entry committed by a step, in commit order.
// Fresh entries passed session dedup (the shell runs the Apply hook and
// counts them); stale ones resolve as duplicates.
type AppliedEntry[C any] struct {
	Slot  uint64
	Entry Entry[C]
	Fresh bool
}

// StepResult is everything a step asks its driver to do.
type StepResult[C any] struct {
	// Out lists envelopes to transmit, in order.
	Out []Outbound
	// Applied lists entries committed by this step, in commit order.
	Applied []AppliedEntry[C]
	// SubmitDup reports that an EvSubmit's sequence number was at or
	// below the client's applied high-water mark.
	SubmitDup bool
}

// ReplicaCore is the protocol state of one replica. It is NOT
// goroutine-safe: the shell serializes access under its mutex, the
// checker is single-threaded per exploration branch.
type ReplicaCore[C any] struct {
	cfg CoreConfig[C]

	pending   []Entry[C]
	unsent    bool // pending grew since its prefix last left in a batch or a forward
	batches   map[int64][]Entry[C]
	logRefs   map[int64]int      // held batch id → unpruned log slots that decided it (retention anchor)
	offered   map[int64]struct{} // held batches not yet fully applied
	decided   map[uint64]int64   // slot → batch id, not yet applied
	maxSeen   map[uint64]uint64  // client → highest accepted seq
	seqFloor  uint64             // NextSeq's base for clients maxSeen has no entry for (persist.go)
	log       []int64            // applied decisions; log[i] decided slot i+1
	logHash   uint64
	hwm       map[uint64]uint64 // client → highest applied seq
	batchSeq  int64
	eagerPush uint64 // lowest own-decided slot to push once applied

	// ownRound remembers the round this replica's OWN run decided a slot
	// in, for the last few such slots (slot s at index s mod its length). A
	// round message of the slot from that round or an earlier one is no
	// laggard's: its sender was in the deciding round with us (a quorum
	// closes it here while the last ack is in flight) and gets the eager
	// push. Slots learned by sync or overwritten here are not remembered,
	// nor is a run that cannot close on a quorum (core.Settling): short of
	// everybody it decides on a jump or the timer, and who is late then lags.
	ownRound [2 * window]SlotRound

	// open holds the running instances by ascending slot: those this
	// replica opened, inside the window applied+1 … applied+window, and
	// those it joined, up to a window beyond (handleRound). Slots open in
	// order, so every slot between the applied log and an open one is open
	// or decided.
	open []*slotRun

	// batchSlot is the highest unapplied slot a batch id is known to be
	// proposed for (by this replica, or by a peer whose round message of
	// the slot carried it) or decided in. Proposals of open slots overlap,
	// so a proposal's entries can all apply through ANOTHER batch while its
	// own slot can still decide it: such a batch is kept until that slot
	// has applied.
	batchSlot map[int64]uint64

	// restoredVotes holds crash-recovered vote records (round, instance
	// encoding) by slot until consensus for the slot reopens and
	// re-installs them (persist.go).
	restoredVotes map[uint64][]byte

	// peerApplied tracks each peer's last observed commit index (their
	// round messages carry their current slot; their sync pulls carry
	// applied+1). Batches of slots every replica has applied are pruned
	// — the GC horizon that keeps long-running servers bounded. A peer
	// that has never been heard from pins the horizon at 0.
	peerApplied map[core.ProcessID]uint64
	prunedTo    uint64

	// forwards holds each peer's latest KindForward: its unapplied pending
	// prefix as of some recent step. Volatile on both ends, replaced
	// wholesale by the next forward, dropped once fully applied.
	forwards [][]Entry[C]

	// Merge scratch, reused across slots so propose() allocates only the
	// batch it mints: the entries under assembly, the highest sequence
	// number merged so far per client, and the newest offered batch per
	// proposer.
	merged     []Entry[C]
	mergedHigh map[uint64]uint64
	newest     []int64
	// carried is the highest sequence number per client that an open
	// proposal of ours — or a batch already decided for a window slot —
	// carries, and uncovered counts the merged entries above it: what the
	// proposal under assembly adds to them.
	carried   map[uint64]uint64
	uncovered int
	// voteBuf and wire are encoding scratch: persistVote's; appendRound's, mint's.
	voteBuf, wire []byte

	stats ReplicaStats
}

// Batch ids are (proposer+1)<<40 | counter: unique by construction, and
// ordered by age only WITHIN one proposer — comparing raw ids across
// proposers compares proposer indexes.
const batchCounterMask = int64(1)<<40 - 1

func batchID(proposer core.ProcessID, counter int64) int64 {
	return (int64(proposer)+1)<<40 | counter
}
func batchProposer(bid int64) core.ProcessID { return core.ProcessID(bid>>40 - 1) }
func batchCounter(bid int64) int64           { return bid & batchCounterMask }

// validBatchID reports whether bid could have been minted by a member
// of this group (propose() indexes per-proposer tables with it).
func (c *ReplicaCore[C]) validBatchID(bid int64) bool {
	p := batchProposer(bid)
	return int(p) >= 0 && int(p) < c.cfg.N && batchCounter(bid) > 0
}

// maxSyncPairs caps decisions per sync push.
const maxSyncPairs = 128

// NewReplicaCore validates the configuration and builds an idle core.
func NewReplicaCore[C any](cfg CoreConfig[C]) (*ReplicaCore[C], error) {
	if cfg.N < 1 || cfg.N > core.MaxProcesses {
		return nil, fmt.Errorf("live: group size %d out of range [1, %d]", cfg.N, core.MaxProcesses)
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("live: self %d outside group of %d", cfg.Self, cfg.N)
	}
	if cfg.Algorithm == nil || cfg.Msg == nil || cfg.Batch == nil {
		return nil, errors.New("live: nil algorithm, codec, or batch codec")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Persist != nil {
		if _, ok := cfg.Algorithm.NewInstance(cfg.Self, cfg.N, 0).(core.Persistent); !ok {
			return nil, fmt.Errorf("live: algorithm %T cannot persist instance state", cfg.Algorithm)
		}
	}
	return &ReplicaCore[C]{
		cfg:           cfg,
		batches:       make(map[int64][]Entry[C]),
		logRefs:       make(map[int64]int),
		offered:       make(map[int64]struct{}),
		decided:       make(map[uint64]int64),
		maxSeen:       make(map[uint64]uint64),
		hwm:           make(map[uint64]uint64),
		batchSlot:     make(map[int64]uint64),
		restoredVotes: make(map[uint64][]byte),
		peerApplied:   make(map[core.ProcessID]uint64),
		forwards:      make([][]Entry[C], cfg.N),
		mergedHigh:    make(map[uint64]uint64),
		newest:        make([]int64, cfg.N),
		carried:       make(map[uint64]uint64),
		logHash:       14695981039346656037, // FNV-64 offset basis
	}, nil
}

// Step applies one event and self-drives to a fixpoint: apply every
// decided-and-fetchable slot in order, then open further window slots
// while there is room and work. The returned result is the step's
// complete effect.
func (c *ReplicaCore[C]) Step(ev Event[C]) StepResult[C] {
	var res StepResult[C]
	switch ev.Kind {
	case EvEnvelope:
		c.handleEnvelope(ev.Env, &res)
	case EvSubmit:
		c.handleSubmit(ev, &res)
	case EvRoundTimeout:
		if run := c.runFor(ev.Slot); run != nil {
			c.transitionRound(run, &res)
			c.closeRounds(run, &res)
		}
	case EvTick:
		c.handleTick(&res)
	case EvNudge:
	}
	c.advance(&res)
	c.forwardPending(&res)
	return res
}

// ---------------------------------------------------------------------
// Event handlers.

// handleSubmit records a fresh submission (or flags a duplicate).
func (c *ReplicaCore[C]) handleSubmit(ev Event[C], res *StepResult[C]) {
	if ev.Seq > c.maxSeen[ev.Client] {
		c.maxSeen[ev.Client] = ev.Seq
	}
	if ev.Seq <= c.hwm[ev.Client] {
		res.SubmitDup = true
		return
	}
	for _, e := range c.pending {
		if e.Client == ev.Client && e.Seq == ev.Seq {
			return // a resubmission of a still-pending command
		}
	}
	c.pending = append(c.pending, Entry[C]{Client: ev.Client, Seq: ev.Seq, Cmd: ev.Cmd})
	c.unsent = true
}

// Accept records a submission WITHOUT driving the protocol forward — the
// shell's submit path, which nudges its event loop to advance instead of
// running consensus on the submitter's goroutine. It reports whether the
// sequence number was already applied (a duplicate).
func (c *ReplicaCore[C]) Accept(client, seq uint64, cmd C) (dup bool) {
	var res StepResult[C]
	c.handleSubmit(Event[C]{Kind: EvSubmit, Client: client, Seq: seq, Cmd: cmd}, &res)
	return res.SubmitDup
}

// handleTick is the anti-entropy edge: while consensus runs it is a
// no-op (round pacing owns the clock), and while idle it probes peers for
// decisions we may have missed.
func (c *ReplicaCore[C]) handleTick(res *StepResult[C]) {
	if len(c.open) > 0 {
		return
	}
	next := uint64(len(c.log)) + 1
	res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
		Slot: next, Kind: KindSyncPull, From: c.cfg.Self, Payload: appendUvarint(nil, next)}})
}

// handleEnvelope dispatches one inbound envelope.
func (c *ReplicaCore[C]) handleEnvelope(env Envelope, res *StepResult[C]) {
	switch env.Kind {
	case KindRound:
		c.handleRound(env, res)
	case KindForward:
		c.handleForward(env)
	case KindSync:
		c.handleSync(env)
	case KindSyncPull:
		if from, n := uvarint(env.Payload); n > 0 {
			if from > 0 {
				c.notePeerApplied(env.From, from-1)
			}
			c.pushDecisions(env.From, from, res)
		} else {
			c.stats.Malformed++
		}
	default:
		c.stats.Malformed++
	}
}

// handleRound classifies a consensus message by slot: inside the window,
// or up to a window beyond it (a peer a hop ahead: this replica joins the
// slot its peers opened, and pulls) → that slot's running instance, opened
// on the spot (with every slot below it) if this replica had no reason to
// open it yet, so the message that announces a slot is also heard in it;
// decided here, applied or not → the sender lags, push decisions — unless
// the message is of the round our own run decided the slot in, or an
// earlier one (ownRound): only a LATER round says its sender went on
// without the decision; further out → we lag, pull decisions only.
func (c *ReplicaCore[C]) handleRound(env Envelope, res *StepResult[C]) {
	enc, rider, ok := SplitRound(env.Payload)
	if !ok {
		c.stats.Malformed++
		return
	}
	msg, err := c.cfg.Msg.Decode(enc)
	if err != nil {
		c.stats.Malformed++
		return
	}
	// Keep (and save) the batch riding the message before hearing it:
	// adopting a value and holding it are one step.
	if len(rider) > 0 && !c.keepBatch(rider, env.Slot) {
		return
	}
	// A round message for slot s says its sender opened s, by its own
	// window or by joining from a window behind: it has applied at least
	// s−2·window.
	if env.Slot > 2*window {
		c.notePeerApplied(env.From, env.Slot-2*window)
	}
	next := uint64(len(c.log)) + 1
	if env.Slot >= next+window { // we lag
		res.Out = append(res.Out, Outbound{To: env.From, Env: Envelope{
			Slot: next, Kind: KindSyncPull, From: c.cfg.Self, Payload: appendUvarint(nil, next)}})
		if env.Slot >= next+2*window {
			return
		}
	}
	if _, decided := c.decided[env.Slot]; decided || env.Slot < next {
		if own := c.ownRound[env.Slot%uint64(len(c.ownRound))]; own.Slot != env.Slot || env.Round > own.Round {
			c.pushDecisions(env.From, env.Slot, res)
		}
		return
	}
	run := c.runFor(env.Slot)
	if run == nil {
		c.openThrough(env.Slot, res)
		if run = c.runFor(env.Slot); run == nil {
			return // beyond the model's slot budget, or decided while opening
		}
	}
	if run.deliver(c.cfg.N, env.From, env.Round, msg, c.cfg.Mutation&MutNoJump != 0) {
		c.transitionRound(run, res)
		c.closeRounds(run, res)
	}
}

// keepBatch stores a batch (varint id, entries) — a round message's rider,
// or a pushed decision's — at first sight, durably, offered unless
// applied, and held until slot applies if slot is in the join range (a
// straggler keeps riders from further out unpinned, to apply once it
// learns the decision). It reports false, counting the payload malformed,
// if b does not parse; the id is checked before the entries are decoded.
func (c *ReplicaCore[C]) keepBatch(b []byte, slot uint64) bool {
	bid, n := varint(b)
	if n <= 0 || !c.validBatchID(bid) {
		c.stats.Malformed++
		return false
	}
	if _, ok := c.batches[bid]; !ok {
		entries, err := c.cfg.Batch.DecodeEntries(b[n:])
		if err != nil {
			c.stats.Malformed++
			return false
		}
		c.batches[bid] = entries
		if c.cfg.Persist != nil {
			c.cfg.Persist.SaveBatch(bid, b[n:])
		}
		if !c.batchApplied(bid) {
			c.offered[bid] = struct{}{}
		}
	}
	if slot < uint64(len(c.log))+1+2*window {
		c.proposedFor(bid, slot)
	}
	return true
}

// proposedFor records that slot may still decide a held batch id.
func (c *ReplicaCore[C]) proposedFor(bid int64, slot uint64) {
	if c.cfg.Mutation&MutPruneOpen != 0 {
		return // SEEDED BUG: the pruner forgets which slots are still open
	}
	c.holdUntil(bid, slot)
}

// holdUntil keeps a batch id's contents until slot has applied here (see
// batchSlot).
func (c *ReplicaCore[C]) holdUntil(bid int64, slot uint64) {
	if bid != 0 && slot > c.batchSlot[bid] && slot > uint64(len(c.log)) {
		c.batchSlot[bid] = slot
	}
}

// handleForward replaces the sender's slot in the forward table with the
// pending prefix it carries. Nothing is persisted: a forward is a hint
// about commands whose owner still holds (and will itself propose) them.
// Duplicated, re-ordered and stale forwards are all harmless — each is a
// prefix of the sender's pending queue at SOME past step, and propose()
// filters what has applied since.
func (c *ReplicaCore[C]) handleForward(env Envelope) {
	if env.From == c.cfg.Self || int(env.From) < 0 || int(env.From) >= c.cfg.N {
		return
	}
	entries, err := c.cfg.Batch.DecodeEntries(env.Payload)
	if err != nil {
		c.stats.Malformed++
		return
	}
	if c.allApplied(entries) {
		entries = nil
	}
	c.forwards[env.From] = entries
}

// forwardPending is the last act of every step: if commands were
// accepted that no batch or forward of ours has carried yet, and this
// replica cannot propose them now (the window is full of running or
// unapplied slots), tell the peers — whichever of them wins the next
// slot to open then commits these commands too, instead of their
// waiting for a slot this replica wins. Best effort by design: a lost
// forward costs latency only, because the commands stay in pending and
// ride our own next proposal regardless.
func (c *ReplicaCore[C]) forwardPending(res *StepResult[C]) {
	if !c.unsent || len(c.open) == 0 {
		return
	}
	c.unsent = false
	k := min(len(c.pending), c.cfg.MaxBatch)
	c.stats.Forwards++
	res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
		Kind: KindForward, From: c.cfg.Self, Payload: c.cfg.Batch.AppendEntries(nil, c.pending[:k])}})
}

// handleSync records pushed decisions. The batch of a slot this replica
// has not applied and whose batch it does not hold is kept before the
// decision is recorded, so no decision is known without its contents; any
// other pair only has its id checked (recordDecision), its entries left
// undecoded.
func (c *ReplicaCore[C]) handleSync(env Envelope) {
	if !SyncPairs(env.Payload, func(slot uint64, bid int64, pair []byte) bool {
		if slot > uint64(len(c.log)) && bid != 0 && !c.HoldsBatch(bid) && !c.keepBatch(pair, slot) {
			return false
		}
		c.recordDecision(slot, bid, true)
		return true
	}) {
		c.stats.Malformed++
	}
}

// SyncPairs walks a KindSync payload — uvarint pair count, then per slot
// uvarint slot | uvarint len | len bytes of varint batch id ‖ BatchCodec
// entries, which are absent exactly when the id is 0 — handing f each
// pair's slot, id, and the len bytes (keepBatch's input), in order, until
// f returns false. It reports false if the payload stops parsing first: a
// count over maxSyncPairs, slot 0, a length past the end, or no id.
//
//holint:hotpath
func SyncPairs(b []byte, f func(slot uint64, bid int64, pair []byte) bool) bool {
	count, n := uvarint(b)
	if n <= 0 || count > maxSyncPairs {
		return false
	}
	b = b[n:]
	for ; count > 0; count-- {
		slot, n1 := uvarint(b)
		if n1 <= 0 || slot == 0 {
			return false
		}
		b = b[n1:]
		l, n2 := uvarint(b)
		if n2 <= 0 || l > uint64(len(b)-n2) {
			return false
		}
		pair := b[n2 : n2+int(l)]
		b = b[n2+int(l):]
		bid, n3 := varint(pair)
		if n3 <= 0 {
			return false
		}
		if !f(slot, bid, pair) {
			break
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Consensus round sequencing (state machine in node.go).

// runFor returns the open run of a slot, or nil.
func (c *ReplicaCore[C]) runFor(slot uint64) *slotRun {
	for _, run := range c.open {
		if run.slot == slot {
			return run
		}
	}
	return nil
}

// closeRun retires a slot's run: the slot decided, here or elsewhere.
// The instance is never restarted — restarting would discard locked
// algorithm state (see node.go).
func (c *ReplicaCore[C]) closeRun(run *slotRun) {
	for i, r := range c.open {
		if r == run {
			c.open = append(c.open[:i], c.open[i+1:]...)
			return
		}
	}
}

// transitionRound closes run's current round: apply T_p^r to the heard
// set, observe a decision, or (mutated) retry with a fresh instance.
func (c *ReplicaCore[C]) transitionRound(run *slotRun, res *StepResult[C]) {
	if c.cfg.MaxRound > 0 && run.r >= c.cfg.MaxRound {
		return // model bound: round MaxRound's window never closes
	}
	r := run.r
	run.inst.Transition(r, run.inbox(c.cfg.N))
	c.stats.Rounds++
	if v, ok := run.inst.Decided(); ok {
		c.closeRun(run)
		if run.settling != nil {
			c.ownRound[run.slot%uint64(len(c.ownRound))] = SlotRound{Slot: run.slot, Round: r}
		}
		if c.eagerPush == 0 || run.slot < c.eagerPush {
			c.eagerPush = run.slot
		}
		c.recordDecision(run.slot, int64(v), false)
		return
	}
	// The transition may have adopted or locked a vote: persist the
	// instance state before the next round's send can reveal it.
	c.persistVote(run)
	if c.cfg.Mutation&MutFreshRetry != 0 && r >= retryAfter {
		// SEEDED BUG: discard the instance — and with it any locked
		// algorithm state — and start a fresh attempt at the slot.
		c.closeRun(run)
		c.openSlot(run.slot, true, res)
		return
	}
	c.nextRound(run, 0, res)
}

// nextRound enters run's following round and broadcasts S_p^r, mint (the
// batch minted for the slot, or 0) riding it unless it names a batch.
func (c *ReplicaCore[C]) nextRound(run *slotRun, mint int64, res *StepResult[C]) {
	r := run.r + 1
	payload := run.inst.Send(r)
	run.enter(c.cfg.N, r, c.cfg.Self, payload)
	b, err := c.appendRound(payload, mint)
	if err != nil {
		c.stats.Malformed++
		return
	}
	res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
		Slot: run.slot, Round: r, Kind: KindRound, From: c.cfg.Self, Payload: b}})
}

// appendRound encodes a KindRound payload: uvarint length, the codec's
// encoding, then the rider — id and entries of the batch the message names
// if held here, else of rider — assembled in scratch, copied out once.
func (c *ReplicaCore[C]) appendRound(m core.Message, rider int64) ([]byte, error) {
	enc, err := c.cfg.Msg.Encode(m)
	if err != nil {
		return nil, err
	}
	if v, ok := c.cfg.Msg.Names(m); ok && c.HoldsBatch(int64(v)) {
		rider = int64(v)
	}
	w := append(appendUvarint(c.wire[:0], uint64(len(enc))), enc...)
	if entries, held := c.batches[rider]; held && rider != 0 {
		w = c.cfg.Batch.AppendEntries(appendVarint(w, rider), entries)
	}
	c.wire = w
	return append([]byte(nil), w...), nil
}

// SplitRound splits a KindRound payload into the codec's encoding and the
// rider behind it (empty if none), without copying.
//
//holint:hotpath
func SplitRound(b []byte) (enc, rider []byte, ok bool) {
	l, n := uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return nil, nil, false
	}
	b = b[n:]
	return b[:l], b[l:], true
}

// closeRounds fast-forwards run through rounds whose collection window
// is already closed (jumped backlog, or n=1 hearing itself), until it
// decides or catches up.
func (c *ReplicaCore[C]) closeRounds(run *slotRun, res *StepResult[C]) {
	for c.runFor(run.slot) == run && run.closed(c.cfg.N, c.cfg.Mutation&MutNoJump != 0) {
		if c.cfg.MaxRound > 0 && run.r >= c.cfg.MaxRound {
			return // model bound (see transitionRound)
		}
		c.transitionRound(run, res)
	}
}

// ---------------------------------------------------------------------
// The advance fixpoint: apply in order, then open.

// advance applies decided slots in slot order, then opens further window
// slots while there is room and something to open them for, repeating
// until nothing changes. A decision arrives with its batch, so contents
// are at hand; a slot whose batch is missing (the checker's lying network
// strips them) just stays unapplied — applying anything else would
// diverge.
func (c *ReplicaCore[C]) advance(res *StepResult[C]) {
	for {
		progressed := false
		for {
			slot := uint64(len(c.log)) + 1
			bid, ok := c.decided[slot]
			if !ok || bid != 0 && !c.HoldsBatch(bid) {
				break
			}
			c.applySlot(slot, bid, res)
			progressed = true
		}
		if c.eagerPush != 0 && uint64(len(c.log)) >= c.eagerPush {
			// Eager push: peers that lost the deciding round learn the
			// outcome now instead of at the next sync trigger — together
			// with every later slot this replica already knows decided.
			from := c.eagerPush
			c.eagerPush = 0
			c.pushDecisions(AllPeers, from, res)
		}
		for c.hasWork() {
			slot := c.frontier(uint64(len(c.log)) + window)
			if slot == 0 || !c.openSlot(slot, c.recoveredFrom(slot), res) {
				break
			}
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// hasWork is the cheap test before a proposal is assembled: is there
// anything — a local, forwarded or offered command, or a vote recovered
// from disk — that could warrant opening a slot?
func (c *ReplicaCore[C]) hasWork() bool {
	if len(c.pending) > 0 || len(c.offered) > 0 || len(c.restoredVotes) > 0 {
		return true
	}
	for _, f := range c.forwards {
		if f != nil {
			return true
		}
	}
	return false
}

// recoveredFrom reports whether a vote recovered from disk waits for
// slot or a later one: those slots were mid-consensus at the crash, and
// slots open in order, so slot reopens even with nothing else queued.
func (c *ReplicaCore[C]) recoveredFrom(slot uint64) bool {
	for s := range c.restoredVotes {
		if s >= slot {
			return true
		}
	}
	return false
}

// frontier returns the lowest slot from the first unapplied one through
// last that is neither running nor decided — the one slot that may open
// next — or 0 when there is none (or the model's slot budget ends first).
func (c *ReplicaCore[C]) frontier(last uint64) uint64 {
	for slot := uint64(len(c.log)) + 1; slot <= last; slot++ {
		if c.cfg.MaxSlots > 0 && slot > c.cfg.MaxSlots {
			break // model bound: no consensus beyond the slot budget
		}
		if _, known := c.decided[slot]; !known && c.runFor(slot) == nil {
			return slot
		}
	}
	return 0
}

// openThrough opens every slot up to and including slot: a peer's round
// traffic shows the group is deciding it, and slots open in order. slot
// may lie up to a window beyond this replica's own (the join).
func (c *ReplicaCore[C]) openThrough(slot uint64, res *StepResult[C]) {
	for f := c.frontier(slot); f != 0; f = c.frontier(slot) {
		if f > uint64(len(c.log))+window {
			c.stats.Joined++
		}
		c.openSlot(f, true, res)
	}
}

// openSlot opens slot's one instance and enters its first round — round
// 1, or the round after the last one a recovered vote sent in. Unasked (no
// peer traffic for the slot) it does so only if that commits something:
// it reports false, and opens nothing, when the proposal it would make
// carries no command beyond what this replica's open proposals carry
// already — replicas would otherwise spin through empty slots.
func (c *ReplicaCore[C]) openSlot(slot uint64, asked bool, res *StepResult[C]) bool {
	vote, restored := c.restoredVotes[slot]
	minted := c.batchSeq
	proposal, ok := c.propose(slot, asked || restored)
	if !ok {
		return false
	}
	var mint int64 // a batch minted for the slot rides its first round message
	if c.batchSeq != minted {
		mint = proposal
	}
	inst := c.cfg.Algorithm.NewInstance(c.cfg.Self, c.cfg.N, core.Value(proposal))
	run := newSlotRun(c.cfg.N, slot, inst, proposal)
	if restored {
		// Crash recovery: re-install the persisted instance state — the
		// locked vote — over the fresh proposal, and resume PAST the last
		// round whose send may have left: no round is lived twice, the
		// rounds skipped are rounds in which nobody heard us (persist.go).
		// The encoding was validated at restore time.
		sent, state, _ := splitVote(vote)
		if sp, ok := inst.(core.Persistent); ok {
			_ = sp.RestoreState(state)
		}
		run.r = sent
		delete(c.restoredVotes, slot)
	}
	i := len(c.open)
	for i > 0 && c.open[i-1].slot > slot {
		i--
	}
	c.open = append(c.open, nil)
	copy(c.open[i+1:], c.open[i:])
	c.open[i] = run
	// The first send already speaks for the instance (in round 1
	// LastVoting's first coordinator votes, OTR sends its proposal): save
	// the state it speaks from first, so a crash before the first
	// transition reopens the slot from what the peers were told, not from
	// a new proposal.
	c.persistVote(run)
	c.nextRound(run, mint, res)
	c.closeRounds(run, res)
	return true
}

// propose picks the initial value of slot's instance: one batch covering
// every unapplied command this replica has heard of — its own pending
// prefix, each peer's latest forward, and the newest still-unapplied
// batch it holds from each proposer (itself included: after a crash its
// own durable batches are the only trace of their commands). Whichever
// proposal the slot's instance picks, it then commits every replica's
// work, not one proposer's. The no-op 0 is proposed when there is
// nothing to commit. Unless asked is set (the group is deciding the slot
// anyway), ok is false and nothing is proposed when the batch would add
// no command to what this replica's open proposals already carry.
//
// Session order is the safety condition. Apply dedups on a per-client
// high-water mark, so a batch that carried a client's seq s but not its
// unapplied seq s' < s would lose s' for good (the mark passes it, and
// its waiter hangs). The merge cannot build such a batch:
//
//   - restricted to one client, every piece it reads — the pending
//     queue, a forward (a prefix of the sender's pending queue), a held
//     batch (by induction, a merge of such pieces) — is a contiguous run
//     of that client's submission order, starting no later than the
//     first seq its builder had not applied. A stale, duplicated or
//     re-ordered forward is a prefix of an OLDER pending queue: its head
//     has applied since, nothing else differs;
//   - merge drops an entry only if it is at or below the high-water mark
//     or already merged (the run's head), and MaxBatch ends the merge
//     outright (the run's tail) — so what it keeps of a run is a run;
//   - a batch can only be decided in a slot past its minter's applied
//     log, where every mark is at least what the minter filtered by, so
//     the run still starts at or before the first unapplied seq there.
//
// The argument never mentions which slot a proposal is for, and that is
// what lets the window reuse it word for word: every proposal, whichever
// open slot it is minted for, is merged against the APPLIED marks, so the
// proposals of slots s and s+1 OVERLAP — s+1's starts at the first
// unapplied seq even where our open proposal for s carries it — and the
// apply-side dedup removes the overlap. Leaving out what the proposal for
// s carries would be wrong: if s decides another replica's batch, s+1
// would pass the mark over a command that never committed
// (MutWindowDisjoint; the session-gap invariant kills it).
//
// Sources are visited starting at (slot mod N), the same order on every
// replica, so the truncation point rotates and no source is always the
// one cut. A new id is minted only if something was merged: a union
// that is exactly one held batch proposes that batch's id, because
// algorithms like OneThirdRule decide on EQUAL values and fresh ids for
// identical contents would never be equal; and a replica asked into a
// slot with nothing its open proposals lack re-proposes the newest of
// those instead of minting their contents again.
func (c *ReplicaCore[C]) propose(slot uint64, asked bool) (bid int64, ok bool) {
	clear(c.newest)
	for id := range c.offered {
		// Newest per proposer: the 40-bit counter orders one proposer's
		// batches; the proposer index in the high bits orders nothing.
		if p := batchProposer(id); batchCounter(id) > batchCounter(c.newest[p]) {
			c.newest[p] = id
		}
	}
	clear(c.carried)
	reuse := int64(0)
	for _, run := range c.open {
		if run.prop != 0 {
			reuse = run.prop
			c.carry(run.prop)
		}
	}
	for s := uint64(len(c.log)) + 1; s <= uint64(len(c.log))+2*window; s++ {
		// A decided slot waiting its turn to apply, inside the window or
		// the join range, commits its batch for certain: nothing in it is
		// a reason to open another slot.
		c.carry(c.decided[s])
	}
	c.merged = c.merged[:0]
	clear(c.mergedHigh)
	c.uncovered = 0
	pieces, sole, foreign := 0, int64(0), 0
	for i := 0; i < c.cfg.N && len(c.merged) < c.cfg.MaxBatch; i++ {
		q := core.ProcessID((slot + uint64(i)) % uint64(c.cfg.N))
		// Source q is two pieces: the newest batch held from it, then its
		// live queue — our own pending, or its latest forward.
		peer, queue := q != c.cfg.Self, c.pending
		if peer {
			queue = c.forwards[q]
		}
		before := len(c.merged)
		if bid := c.newest[q]; bid != 0 {
			held := c.batches[bid]
			if n := c.merge(held, peer); n > 0 {
				pieces++
				if before == 0 && n == c.unapplied(held) {
					sole = bid // so far the union IS this held batch
				}
			}
		}
		if c.merge(queue, peer) > 0 {
			pieces++
		}
		if peer {
			foreign += len(c.merged) - before
		}
	}
	if c.uncovered == 0 && !asked {
		return 0, false
	}
	if k := min(len(c.pending), c.cfg.MaxBatch); k == 0 || c.pending[k-1].Seq <= c.mergedHigh[c.pending[k-1].Client] {
		// The prefix a forward would carry is in the proposed batch, whose
		// contents the peers hold or are about to be sent.
		c.unsent = false
	}
	switch {
	case pieces == 0:
		return 0, true
	case pieces == 1 && sole != 0:
		bid = sole
	case c.uncovered == 0 && reuse != 0:
		bid = reuse
	default:
		bid = c.mint(foreign)
	}
	c.proposedFor(bid, slot)
	return bid, true
}

// carry folds a held batch into carried.
func (c *ReplicaCore[C]) carry(bid int64) {
	for _, e := range c.batches[bid] {
		if e.Seq > c.carried[e.Client] {
			c.carried[e.Client] = e.Seq
		}
	}
}

// mint turns the merged entries into a new batch of this proposer, saved
// before its id can appear in any round message; its contents leave with
// the first one (openSlot).
func (c *ReplicaCore[C]) mint(foreign int) int64 {
	entries := make([]Entry[C], len(c.merged))
	copy(entries, c.merged)
	c.batchSeq++
	bid := batchID(c.cfg.Self, c.batchSeq)
	c.batches[bid] = entries
	c.stats.Merged += foreign
	c.stats.Overlapped += len(entries) - c.uncovered
	if c.cfg.Persist != nil {
		// Quorum-durable dissemination: the batch body is on our own
		// disk (after the shell's sync barrier) before any peer can see
		// — let alone vote for — its id.
		c.wire = c.cfg.Batch.AppendEntries(c.wire[:0], entries)
		c.cfg.Persist.SaveBatch(bid, c.wire)
	}
	return bid
}

// merge appends to the batch under assembly every entry of piece that
// is neither applied nor merged already, in piece order, stopping for
// good at MaxBatch, and returns how many it added. peer marks a piece
// that arrived from another replica (MutMergeSkip's target).
func (c *ReplicaCore[C]) merge(piece []Entry[C], peer bool) int {
	added := 0
	skip := peer && c.cfg.Mutation&MutMergeSkip != 0
	disjoint := c.cfg.Mutation&MutWindowDisjoint != 0
	for _, e := range piece {
		if len(c.merged) >= c.cfg.MaxBatch {
			break
		}
		if e.Seq <= c.hwm[e.Client] || e.Seq <= c.mergedHigh[e.Client] {
			continue
		}
		if skip {
			// SEEDED BUG: drop the piece's first unapplied entry and keep
			// what follows it.
			skip = false
			continue
		}
		covered := e.Seq <= c.carried[e.Client]
		if covered && disjoint {
			continue // SEEDED BUG: an open proposal of ours has it — leave it out
		}
		if !covered {
			c.uncovered++
		}
		c.mergedHigh[e.Client] = e.Seq
		c.merged = append(c.merged, e)
		added++
	}
	return added
}

// unapplied counts the entries of a piece above their client's
// high-water mark.
func (c *ReplicaCore[C]) unapplied(piece []Entry[C]) int {
	n := 0
	for _, e := range piece {
		if e.Seq > c.hwm[e.Client] {
			n++
		}
	}
	return n
}

// allApplied reports whether every entry is at or below its client's
// high-water mark.
func (c *ReplicaCore[C]) allApplied(entries []Entry[C]) bool {
	return c.unapplied(entries) == 0
}

// ---------------------------------------------------------------------
// Decisions, apply, GC.

// recordDecision folds one decision observation in. Conflicting
// observations for a slot — from our own instance, a peer's sync, or the
// applied log — increment Divergent and keep the first value, so a
// safety violation is counted, visible in /stats, and never silently
// overwritten.
func (c *ReplicaCore[C]) recordDecision(slot uint64, bid int64, viaSync bool) {
	if slot <= uint64(len(c.log)) {
		if c.log[slot-1] != bid {
			c.stats.Divergent++
		}
		return
	}
	if prev, ok := c.decided[slot]; ok {
		if prev != bid {
			c.stats.Divergent++
		}
		return
	}
	c.decided[slot] = bid
	c.holdUntil(bid, slot)
	if c.cfg.Persist != nil {
		c.cfg.Persist.SaveDecision(slot, bid)
	}
	if viaSync {
		c.stats.SyncDecisions++
	}
	if run := c.runFor(slot); run != nil {
		// An open slot was decided externally: its one instance is
		// retired undecided.
		c.closeRun(run)
	}
	delete(c.restoredVotes, slot)
}

// applySlot commits slot's batch: apply fresh entries in order under
// session dedup, advance the log, prune. Contents must be at hand.
func (c *ReplicaCore[C]) applySlot(slot uint64, bid int64, res *StepResult[C]) {
	var entries []Entry[C]
	if bid != 0 {
		entries = c.batches[bid]
	}
	appliedFrom := len(res.Applied)
	for _, e := range entries {
		ae := AppliedEntry[C]{Slot: slot, Entry: e}
		if e.Seq > c.hwm[e.Client] {
			c.hwm[e.Client] = e.Seq
			ae.Fresh = true
			c.stats.Committed++
		}
		res.Applied = append(res.Applied, ae)
	}
	if len(entries) > 0 {
		// Drop applied commands from the local pending queue and retire
		// fully-applied offered batches.
		keep := c.pending[:0]
		for _, e := range c.pending {
			if e.Seq > c.hwm[e.Client] {
				keep = append(keep, e)
			}
		}
		c.pending = keep
		for id := range c.offered {
			if c.batchApplied(id) {
				delete(c.offered, id)
			}
		}
		for q, f := range c.forwards {
			if f != nil && c.allApplied(f) {
				c.forwards[q] = nil
			}
		}
	}
	if c.cfg.Persist != nil {
		c.cfg.Persist.SaveApplied(slot, bid, c.persistFresh(res.Applied, appliedFrom))
	}
	delete(c.decided, slot)
	c.log = append(c.log, bid)
	if bid != 0 {
		c.logRefs[bid]++
	}
	const fnvPrime = 1099511628211
	c.logHash = (c.logHash ^ slot) * fnvPrime
	c.logHash = (c.logHash ^ uint64(bid)) * fnvPrime
	c.pruneBatches()
}

// pruneBatches bounds batch retention. A held batch is kept while any
// of three things can still make a replica ask for its contents:
//
//   - A log slot past the horizon decided it. Decided batches are kept
//     until every replica's observed commit index passes their slot: a
//     laggard is only ever pushed the slots from its applied+1 on, and
//     horizon+1 ≤ applied+1, so nothing at or below the horizon is pushed
//     again. A peer that was never heard from — or a long-dead one —
//     pins this horizon, trading memory for its ability to rejoin from
//     the log; bounded-membership GC is future work. One id can be
//     decided in two slots (a replica asked into a slot with nothing new
//     re-proposes a held id), so the log holds a reference per slot: the
//     horizon passing the earlier slot must not take the contents the
//     later one names.
//   - An unapplied slot may decide it, or already has (batchSlot):
//     proposals of open slots overlap, so all entries of a proposal can
//     apply through another batch while its own slot is still running.
//   - Some entry is unapplied. Losing or superseded proposals — under
//     contention most proposals lose — go as soon as all their entries
//     are at or below the local high-water marks and their slot has
//     applied: any replica that could still PROPOSE such a batch's id is
//     by construction one that retains its contents (propose() only
//     re-proposes an id whose contents it holds), so a later decision of
//     the id can still be served.
func (c *ReplicaCore[C]) pruneBatches() {
	applied := uint64(len(c.log))
	horizon := applied
	for q := 0; q < c.cfg.N; q++ {
		p := core.ProcessID(q)
		if p == c.cfg.Self {
			continue
		}
		if pa, ok := c.peerApplied[p]; !ok {
			horizon = 0
			break
		} else if pa < horizon {
			horizon = pa
		}
	}
	for s := c.prunedTo + 1; s <= horizon; s++ {
		if bid := c.log[s-1]; c.logRefs[bid] > 1 {
			c.logRefs[bid]--
		} else {
			delete(c.logRefs, bid)
		}
	}
	if horizon > c.prunedTo {
		c.prunedTo = horizon
	}
	for bid, entries := range c.batches {
		if c.batchSlot[bid] > applied {
			continue
		}
		delete(c.batchSlot, bid)
		if c.logRefs[bid] == 0 && c.allApplied(entries) {
			delete(c.batches, bid)
			delete(c.offered, bid)
		}
	}
}

// notePeerApplied folds in an observation of a peer's commit index and
// re-runs the pruner (the horizon can advance on peer progress alone,
// e.g. after the local log has quiesced).
func (c *ReplicaCore[C]) notePeerApplied(p core.ProcessID, applied uint64) {
	if applied > c.peerApplied[p] {
		c.peerApplied[p] = applied
		c.pruneBatches()
	}
}

// batchApplied reports whether every entry of a known batch is at or
// below its client's high-water mark.
func (c *ReplicaCore[C]) batchApplied(bid int64) bool {
	entries, ok := c.batches[bid]
	return ok && c.allApplied(entries)
}

// decisionAt returns the batch id this replica knows slot decided,
// from the applied log or the decided-but-unapplied map.
func (c *ReplicaCore[C]) decisionAt(slot uint64) (int64, bool) {
	if bid, ok := c.LogAt(slot); ok {
		return bid, true
	}
	bid, ok := c.decided[slot]
	return bid, ok
}

// pushDecisions emits the decisions known here from slot `from` on —
// the applied log, then whatever is decided but not yet applied — each
// with its batch (see handleSync), to one peer or everyone. It stops at
// the first slot this replica does not know or whose batch it does not
// hold, at maxSyncPairs, and before the envelope would outgrow maxFrame,
// so what it sends is a prefix the receiver can apply. The envelope's Slot
// is the first slot it carries (a pull's names the slot it asks from): no
// receiver reads it, and hoperf's tracer files the send under it.
func (c *ReplicaCore[C]) pushDecisions(to core.ProcessID, from uint64, res *StepResult[C]) {
	if from == 0 {
		from = 1
	}
	var pairs []byte
	count := uint64(0)
	for s := from; count < maxSyncPairs; s++ {
		bid, ok := c.decisionAt(s)
		entries, held := c.batches[bid]
		if !ok || bid != 0 && !held {
			break
		}
		body := appendVarint(c.wire[:0], bid)
		if bid != 0 {
			body = c.cfg.Batch.AppendEntries(body, entries)
		}
		c.wire = body
		next := appendUvarint(appendUvarint(pairs, s), uint64(len(body)))
		if maxEnvelopeHeader+2+len(next)+len(body) > maxFrame { // 2: the count, at most maxSyncPairs
			break
		}
		pairs = append(next, body...)
		count++
	}
	if count == 0 {
		return
	}
	payload := append(appendUvarint(make([]byte, 0, 2+len(pairs)), count), pairs...)
	res.Out = append(res.Out, Outbound{To: to, Env: Envelope{
		Slot: from, Kind: KindSync, From: c.cfg.Self, Payload: payload}})
}

// ---------------------------------------------------------------------
// Observers (shell and checker).

// LogFingerprint returns the applied slot count and the running FNV hash
// of the (slot, batch id) decision sequence.
func (c *ReplicaCore[C]) LogFingerprint() (uint64, uint64) {
	return uint64(len(c.log)), c.logHash
}

// DecisionLogCopy copies the applied decisions.
func (c *ReplicaCore[C]) DecisionLogCopy() []int64 {
	out := make([]int64, len(c.log))
	copy(out, c.log)
	return out
}

// LogAt returns the decided batch id of an applied slot (1-based), or
// false if the slot is beyond the log.
func (c *ReplicaCore[C]) LogAt(slot uint64) (int64, bool) {
	if slot == 0 || slot > uint64(len(c.log)) {
		return 0, false
	}
	return c.log[slot-1], true
}

// Counters snapshots the service counters, deriving the length-based
// fields from the current state.
func (c *ReplicaCore[C]) Counters() ReplicaStats {
	st := c.stats
	st.Applied = uint64(len(c.log))
	st.Pending = len(c.pending)
	st.BatchesHeld = len(c.batches)
	st.Open = len(c.open)
	return st
}

// SlotRound names the round an open slot is in.
type SlotRound struct {
	Slot  uint64
	Round core.Round
}

// OpenRounds appends the open slots and their current rounds to dst, in
// slot order.
func (c *ReplicaCore[C]) OpenRounds(dst []SlotRound) []SlotRound {
	for _, run := range c.open {
		dst = append(dst, SlotRound{Slot: run.slot, Round: run.r})
	}
	return dst
}

// NextSeq returns the client's next fresh sequence number.
func (c *ReplicaCore[C]) NextSeq(client uint64) uint64 {
	if seen, ok := c.maxSeen[client]; ok {
		return seen + 1
	}
	return c.seqFloor + 1
}

// SeqApplied reports whether a client sequence number is at or below the
// applied high-water mark (i.e. a duplicate).
func (c *ReplicaCore[C]) SeqApplied(client, seq uint64) bool { return seq <= c.hwm[client] }

// AppliedSeqSum adds up the applied high-water marks of all client
// sessions. When every client's sequence numbers are submitted
// contiguously from 1, each fresh apply raises exactly one mark by
// exactly one, so the sum equals Counters().Committed — unless some
// apply jumped over an unapplied sequence number (the model checker's
// session-gap invariant).
func (c *ReplicaCore[C]) AppliedSeqSum() uint64 {
	var sum uint64
	for _, seq := range c.hwm {
		sum += seq
	}
	return sum
}

// NextSlot returns the first unapplied slot.
func (c *ReplicaCore[C]) NextSlot() uint64 { return uint64(len(c.log)) + 1 }

// DecidedUnapplied copies the decided-but-unapplied slot map.
func (c *ReplicaCore[C]) DecidedUnapplied() map[uint64]int64 {
	out := make(map[uint64]int64, len(c.decided))
	for s, b := range c.decided {
		out[s] = b
	}
	return out
}

// HoldsBatch reports whether the core retains a batch's contents.
func (c *ReplicaCore[C]) HoldsBatch(bid int64) bool {
	_, ok := c.batches[bid]
	return ok
}

// BatchesCreated returns this proposer's batch counter: ids
// batchID(Self, k) for 1 ≤ k ≤ BatchesCreated() exist or existed.
func (c *ReplicaCore[C]) BatchesCreated() int64 { return c.batchSeq }
