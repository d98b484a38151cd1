// Replica: the live replicated-state-machine service — the counterpart
// of internal/rsm's Engine, rebuilt for a world without a shared memory.
// In the simulator the engine owns every process and a common pending
// table, so a slot can decide a bitmask over commands everybody already
// sees. Live, each replica knows only its own submissions, so the layer
// splits replication into the two classic halves:
//
//   - Dissemination: a proposer packs commands into a BATCH, assigns it
//     an id that is unique by construction ((proposer+1) in the high
//     bits, a local counter below — no hashing, no collisions), and
//     sends the contents with its first round message of the slot, and
//     with every one that names the batch (a vote); a decision push
//     carries the batch of every slot it names, so no message names a
//     batch it does not carry. Which commands: every unapplied one the
//     proposer has heard of. A replica that accepts a command while it
//     cannot propose (its slot window is full) FORWARDS its pending
//     prefix to its peers at once — a hint, never persisted,
//     latest-per-sender — and every proposal MERGES own pending ∪ the
//     peers' forwards ∪ the newest unapplied batch held from each
//     proposer, in per-source order.
//   - Agreement: each slot runs one core.Instance (LastVoting, OTR, …)
//     whose proposals are batch IDS (they fit core.Value), and a replica
//     keeps a small WINDOW of slots in flight (replicacore.go's `window`):
//     rounds are communication-closed per instance, so nothing orders
//     the instances of different slots — a good period long enough for
//     one phase serves every instance open in it — and only APPLY is in
//     slot order. A command accepted while a slot runs therefore opens
//     the next slot at once instead of waiting the running one out.
//     Under LastVoting a slot with nothing lost is TWO rounds: the
//     phase-1 coordinator votes its proposal in round 1 and whoever
//     adopted it decides on the acks of round 2; a replica that missed
//     the vote learns the slot from a decider's sync push.
//     Proposals of open slots overlap (each starts at the first
//     unapplied command; see propose()). Whichever
//     proposal the instance picks — the coordinator's own under
//     LastVoting, the smallest under OTR — therefore commits every
//     replica's commands, not one proposer's; a replica whose union is
//     exactly one held batch proposes that batch's id (equal values are
//     what OTR decides on), one with nothing proposes 0, the no-op
//     batch. Deciding an id whose contents have not arrived yet just
//     delays APPLY, never agreement.
//
// Commands carry (client, seq) session identities; apply keeps a
// high-water mark per client, so overlapping batches (merged proposals
// overlap by design, the proposals of two open slots even more so; so
// does a retried command landing in two) still apply exactly once — the same exactly-once contract rsm's sessions
// give, enforced at the other end. The mark is also why the merge must
// keep every source's order: see propose() in replicacore.go.
//
// Decided slots spread through a sync protocol that doubles as the
// decide-retransmission and the crash-rejoin path: a replica whose own
// instance decides a slot pushes the decision to every peer in that step;
// a round message for a slot decided here draws a push to its sender,
// whatever its round; and one for a future slot reveals that WE lag (if
// the slot is at most a window beyond ours, we also join it) and draws a
// pull of the decision log. A replica paused mid-round therefore rejoins
// by replaying decisions, not consensus.
//
// ALL of the above is protocol logic, and none of it lives in this
// file: it is ReplicaCore (replicacore.go), a pure step function that
// the exhaustive model checker (internal/modelcheck) explores directly.
// Replica is the production SHELL around that core — one event-loop
// goroutine that turns transport deliveries, round-timeout fires (one
// deadline per open slot), and heartbeat ticks into core events, steps
// every delivery already queued at a wakeup, makes what those steps
// saved durable with ONE barrier, runs the Apply hook for committed
// entries, resolves submitter waiters, and then transmits every envelope
// the steps returned, as they returned it: a lost or repeated envelope is
// a transmission fault, which the core absorbs and the checker covers.
// Time, goroutines, and channels stop at this boundary.
//
// Fault envelope: transmission faults of any rate and crash-RECOVERY
// are fully handled — with a Persister configured, kill -9 included:
// the wal package is the paper's stable storage, the sync-before-send
// barrier in dispatch makes every externally visible fact durable
// first, and a restarted replica reloads snapshot+log (the locked vote
// of every slot that was open, decisions, dedup high-water marks, batch
// contents) and rejoins via the ordinary sync path. The dissemination
// window — an id decided while its contents reached nobody but its
// proposer — is closed: a batch rides the messages that name it and is
// kept (and saved) in the step that hears them, so whoever decides a slot
// in its own instance holds its contents; a decision push carries its
// batches, kept (and saved) before the decision is, so whoever learns a
// slot by sync holds them too. The model checker holds "decided ⇒ held"
// as an invariant at every replica and reaches the old stall only through
// a network that strips the batches (stripRiders, the kill suite's
// stall-window walk). Volatile
// (Persister-less) replicas keep the pre-durability envelope:
// pause/rejoin recovers, restart is data loss.

package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/wal"
)

// Entry is one replicated command with its client-session identity.
type Entry[C any] struct {
	Client uint64
	Seq    uint64
	Cmd    C
}

// BatchCodec serializes command batches for dissemination.
type BatchCodec[C any] interface {
	// AppendEntries encodes entries after dst.
	AppendEntries(dst []byte, entries []Entry[C]) []byte
	// DecodeEntries parses an AppendEntries encoding. It runs on raw
	// network input, so implementations must validate before they
	// allocate — in particular, bound the entry count before sizing a
	// slice from it (a hostile header otherwise turns a few bytes into
	// a giant allocation).
	DecodeEntries(src []byte) ([]Entry[C], error)
}

// ApplyResult reports the fate of a submitted command to its waiter.
type ApplyResult struct {
	// Slot is the consensus slot that committed the command.
	Slot uint64
	// Out is whatever the Apply hook returned (e.g. the value a
	// linearizable read observed at apply time).
	Out any
	// Dup marks a submission whose sequence number was already applied.
	Dup bool
}

// ReplicaStats are one replica's service counters. Live runs are not
// deterministic, so these are measurements, not reproducible tables.
type ReplicaStats struct {
	// Applied is the commit index: slots applied so far.
	Applied uint64
	// Committed counts commands applied (exactly-once, after dedup).
	Committed int
	// Divergent counts conflicting decision observations for one slot.
	// Consensus safety says it stays 0; the live smoke jobs assert it.
	Divergent int
	// SyncDecisions counts slots learned through the sync path instead
	// of this replica's own consensus instance.
	SyncDecisions int
	// Rounds accumulates consensus rounds executed by this replica.
	Rounds int64
	// Pending counts accepted-but-uncommitted local submissions.
	Pending int
	// BatchesHeld counts disseminated batches currently retained.
	// Batches of slots every replica has applied are pruned, so on a
	// healthy cluster this stays near the in-flight window instead of
	// growing with history.
	BatchesHeld int
	// Malformed counts undecodable inbound payloads (dropped).
	Malformed int
	// Forwards counts KindForward broadcasts emitted: steps in which this
	// replica accepted commands it could not propose yet and told its
	// peers about them instead.
	Forwards int
	// Merged counts commands this replica proposed on a peer's behalf —
	// entries of the batches it minted that came from a forward or from
	// a peer's batch rather than from its own pending queue.
	Merged int
	// Open counts the slots in flight right now: running consensus
	// instances of the slot window (at most `window`) and of the slots
	// joined beyond it (at most `window` more).
	Open int
	// Overlapped counts entries this replica minted into a batch while an
	// open proposal of its own already carried them — the price of
	// overlapping proposals: apply-side dedup drops them again unless the
	// earlier slot decided someone else's batch.
	Overlapped int
	// Joined counts slots this replica opened beyond its own window
	// because a peer's round message named them.
	Joined int
}

// ReplicaConfig parameterizes one process's replica of one group.
type ReplicaConfig[C any] struct {
	// Self and N identify this process within the group's n processes.
	Self core.ProcessID
	N    int
	// Algorithm decides each slot; Msg is its wire codec.
	Algorithm core.Algorithm
	Msg       Codec
	// Batch serializes command batches.
	Batch BatchCodec[C]
	// Transport connects the group (a Mux Link when several groups share
	// one socket). The replica does not close it.
	Transport Transport
	// Apply is invoked once per committed command, in commit order, from
	// the replica's event loop; its return value reaches the submitter's
	// ApplyResult.Out.
	Apply func(slot uint64, e Entry[C]) any
	// RoundTimeout bounds each round's collection window (default 2ms —
	// the live stand-in for the good-period bound Φ+2Δ). A slot has no
	// ROUND budget: its one instance runs until it decides or the
	// decision arrives via sync (restarting an instance would discard
	// locked algorithm state and break agreement; the model checker's
	// MutFreshRetry mutant proves it).
	RoundTimeout time.Duration
	// MaxBatch caps commands per proposal (default 64).
	MaxBatch int
	// SyncEvery paces the idle anti-entropy heartbeat (default 250ms).
	SyncEvery time.Duration

	// Persist, when non-nil, is the durability layer (typically a
	// wal.Store): every protocol fact a core step saves is made durable
	// by a Sync before the step's envelopes are transmitted or its
	// waiters acknowledged — one Sync per event-loop wakeup, covering
	// every step of it. Nil keeps the replica volatile.
	Persist Persister
	// Recovered is the state to restart from (the wal.Open result for
	// Persist's directory). Nil or zero-valued means a fresh replica.
	// The log tail beyond its application snapshot is re-applied through
	// Apply before the event loop starts.
	Recovered *wal.State
	// SnapshotState captures the application state machine's snapshot
	// encoding, called under the replica's lock right after Apply ran
	// for every entry the snapshot covers.
	SnapshotState func() []byte
	// SnapshotEvery takes a snapshot (truncating the log) every that
	// many applied slots (default 1024; negative disables).
	SnapshotEvery int
}

// waiterKey identifies a submission.
type waiterKey struct{ client, seq uint64 }

// Replica runs one process's share of a replicated command log.
type Replica[C any] struct {
	cfg ReplicaConfig[C]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	core    *ReplicaCore[C]
	waiters map[waiterKey]chan ApplyResult

	snapLast   uint64 // applied-slot count at the last snapshot
	persistErr error  // first durability failure; the replica halts on it

	// One wakeup's joint step output, reused across wakeups. Only the
	// event loop touches them, under mu while the steps run.
	out     []Outbound
	applied []AppliedEntry[C]

	workCh chan struct{}
}

// NewReplica validates the configuration and builds a stopped replica;
// call Start to begin participating.
func NewReplica[C any](cfg ReplicaConfig[C]) (*Replica[C], error) {
	if cfg.Transport == nil {
		return nil, errors.New("live: nil transport")
	}
	ccfg := CoreConfig[C]{
		Self:      cfg.Self,
		N:         cfg.N,
		Algorithm: cfg.Algorithm,
		Msg:       cfg.Msg,
		Batch:     cfg.Batch,
		MaxBatch:  cfg.MaxBatch,
		Persist:   cfg.Persist,
	}
	var rc *ReplicaCore[C]
	var err error
	if cfg.Recovered != nil {
		rc, err = RestoreReplicaCore(ccfg, cfg.Recovered)
	} else {
		rc, err = NewReplicaCore(ccfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Millisecond
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 250 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica[C]{
		cfg: cfg, ctx: ctx, cancel: cancel,
		core:    rc,
		waiters: make(map[waiterKey]chan ApplyResult),
		workCh:  make(chan struct{}, 1),
	}
	if cfg.Recovered != nil {
		// Catch the application up with the protocol log: re-apply the
		// fresh entries of every slot past the recovered app snapshot. The
		// batches are present by construction — a batch is durable before
		// (or with) the apply record that references it.
		r.snapLast = cfg.Recovered.AppSlots
		for _, ap := range cfg.Recovered.Tail {
			if ap.Bid == 0 || cfg.Apply == nil {
				continue
			}
			entries, ok := rc.EntriesOf(ap.Bid)
			if !ok && len(ap.Fresh) > 0 {
				cancel()
				return nil, fmt.Errorf("live: recovery: batch %#x of applied slot %d missing", ap.Bid, ap.Slot)
			}
			for _, e := range entries {
				for _, cs := range ap.Fresh {
					if e.Client == cs.Client && e.Seq == cs.Seq {
						cfg.Apply(ap.Slot, e)
						break
					}
				}
			}
		}
	}
	return r, nil
}

// Start launches the event loop.
func (r *Replica[C]) Start() {
	r.wg.Add(1)
	go func() { defer r.wg.Done(); r.run() }()
}

// Stop halts the replica (it does not close the transport) and releases
// every outstanding waiter: each closes without a value.
func (r *Replica[C]) Stop() {
	r.cancel()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseWaiters()
}

// releaseWaiters closes every outstanding waiter. Callers hold mu and have
// cancelled the loop, so stopped() keeps new waiters from being installed.
func (r *Replica[C]) releaseWaiters() {
	for k, ch := range r.waiters {
		close(ch)
		delete(r.waiters, k)
	}
}

// Submit accepts a command under a client session; sequence numbers must
// be positive and fresh per client (a seq at or below the client's
// applied high-water mark is a duplicate and resolves immediately). The
// returned channel receives exactly one ApplyResult when the command
// commits (buffered: never blocks the replica), or closes without a
// value if the replica stops first.
//
// A client's submissions to one replica must carry increasing sequence
// numbers in submission order — batches are prefixes of the pending
// queue, so an out-of-order seq could be skipped by dedup forever. Use
// SubmitNext unless you are deliberately modeling retries.
func (r *Replica[C]) Submit(client, seq uint64, cmd C) (<-chan ApplyResult, error) {
	if seq == 0 {
		return nil, errors.New("live: sequence numbers start at 1")
	}
	ch := make(chan ApplyResult, 1)
	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		close(ch)
		return ch, nil
	}
	if r.core.Accept(client, seq, cmd) {
		r.mu.Unlock()
		ch <- ApplyResult{Dup: true}
		return ch, nil
	}
	r.supersede(waiterKey{client, seq}, ch)
	r.mu.Unlock()
	r.signalWork()
	return ch, nil
}

// SubmitNext enters cmd at the client's next fresh sequence number,
// assigned atomically with enqueueing — the safe path for concurrent
// submitters sharing a client session (e.g. HTTP handlers of one server
// process). It returns the waiter and the sequence used (0, with the
// waiter already closed, if the replica has stopped).
func (r *Replica[C]) SubmitNext(client uint64, cmd C) (<-chan ApplyResult, uint64) {
	ch := make(chan ApplyResult, 1)
	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		close(ch)
		return ch, 0
	}
	seq := r.core.NextSeq(client)
	if r.core.Accept(client, seq, cmd) {
		r.mu.Unlock()
		ch <- ApplyResult{Slot: 0, Dup: true}
		return ch, seq
	}
	r.supersede(waiterKey{client, seq}, ch)
	r.mu.Unlock()
	r.signalWork()
	return ch, seq
}

// stopped reports whether Stop (or a durability failure) has cancelled the
// event loop. Callers hold mu: Stop and halt sweep the waiters under mu
// after cancelling, so a waiter installed once this reads true would never
// be closed.
func (r *Replica[C]) stopped() bool { return r.ctx.Err() != nil }

// supersede installs a waiter, closing any previous waiter of the same
// submission (a resubmission supersedes it). Callers hold mu.
func (r *Replica[C]) supersede(key waiterKey, ch chan ApplyResult) {
	if old, ok := r.waiters[key]; ok {
		close(old)
	}
	r.waiters[key] = ch
}

// Stats returns a snapshot of the service counters.
func (r *Replica[C]) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.Counters()
}

// LogHash fingerprints the applied decision log (slot, batch id)
// sequence: equal prefixes hash equal, so replicas of one group must
// agree on it up to their commit indexes.
func (r *Replica[C]) LogHash() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.LogFingerprint()
}

// Checkpoint takes a durability snapshot now — protocol state plus the
// SnapshotState application capture — and truncates the log, so the
// next restart replays from here instead of from the log's start. The
// graceful-shutdown path (hoserve's SIGTERM handler) calls this; it is
// a no-op without a persister.
func (r *Replica[C]) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Persist == nil {
		return nil
	}
	if r.persistErr != nil {
		return r.persistErr
	}
	return r.checkpointLocked()
}

// checkpointLocked snapshots under mu.
func (r *Replica[C]) checkpointLocked() error {
	st := r.core.PersistState()
	st.AppSlots = uint64(len(st.Log))
	if r.cfg.SnapshotState != nil {
		st.AppState = r.cfg.SnapshotState()
	}
	if err := r.cfg.Persist.Snapshot(st); err != nil {
		return err
	}
	r.snapLast = st.AppSlots
	return nil
}

// Err reports the durability failure that halted the replica, if any.
func (r *Replica[C]) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistErr
}

// signalWork nudges the event loop without blocking.
func (r *Replica[C]) signalWork() {
	select {
	case r.workCh <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------
// The event loop.

// maxDrain bounds how many queued transport deliveries one wakeup steps
// before its barrier: enough to cover a burst of round traffic for every
// open slot, small enough that timers and submissions are not starved.
const maxDrain = 64

// run is the replica's only goroutine: it feeds events into the core and
// keeps the shell's timer — one collection-window deadline per open slot —
// consistent with the core's state.
func (r *Replica[C]) run() {
	in := r.cfg.Transport.Recv()
	hb := time.NewTicker(r.cfg.SyncEvery)
	defer hb.Stop()

	// One timer serves every open slot: it is armed for the earliest of
	// their deadlines, and a fire times out each slot whose deadline has
	// passed. A slot's deadline is set when the core enters a round the
	// shell has not seen it in, and left alone otherwise.
	roundTimer := time.NewTimer(time.Hour)
	stopTimer(roundTimer)
	defer roundTimer.Stop()
	type deadline struct {
		SlotRound
		at time.Time
	}
	var deadlines, scratch []deadline
	var open []SlotRound
	var armedAt time.Time // what roundTimer is set for; zero when stopped

	reconcile := func() {
		r.mu.Lock()
		open = r.core.OpenRounds(open[:0])
		r.mu.Unlock()
		now := time.Now()
		scratch = scratch[:0]
		var earliest time.Time
		for _, sr := range open {
			d := deadline{SlotRound: sr, at: now.Add(r.cfg.RoundTimeout)}
			for _, old := range deadlines {
				if old.SlotRound == sr {
					d.at = old.at
				}
			}
			scratch = append(scratch, d)
			if earliest.IsZero() || d.at.Before(earliest) {
				earliest = d.at
			}
		}
		deadlines, scratch = scratch, deadlines
		if !earliest.Equal(armedAt) {
			armedAt = earliest
			stopTimer(roundTimer)
			if !earliest.IsZero() {
				roundTimer.Reset(earliest.Sub(now))
			}
		}
	}
	reconcile()

	var evs []Event[C]
	for {
		evs = evs[:0]
		select {
		case env, ok := <-in:
			if !ok {
				return
			}
			evs = append(evs, Event[C]{Kind: EvEnvelope, Env: env})
		case <-r.workCh:
			evs = append(evs, Event[C]{Kind: EvNudge})
		case <-roundTimer.C:
			armedAt = time.Time{} // fired: re-arm via reconcile
			now, kept := time.Now(), deadlines[:0]
			for _, d := range deadlines {
				if d.at.After(now) {
					kept = append(kept, d)
				} else {
					evs = append(evs, Event[C]{Kind: EvRoundTimeout, Slot: d.Slot})
				}
			}
			deadlines = kept
		case <-hb.C:
			evs = append(evs, Event[C]{Kind: EvTick})
		case <-r.ctx.Done():
			return
		}
		// Whatever woke the loop, step the deliveries already queued behind
		// it too: they share the wakeup's one durability barrier.
	drain:
		for len(evs) < maxDrain {
			select {
			case env, ok := <-in:
				if !ok {
					break drain // the next blocking receive returns
				}
				evs = append(evs, Event[C]{Kind: EvEnvelope, Env: env})
			default:
				break drain
			}
		}
		r.dispatch(evs)
		reconcile()
	}
}

// dispatch runs one core step per event and then executes their joint
// effects: the durability barrier FIRST — one Sync makes everything the
// steps saved durable before any of their output becomes visible — then
// the Apply hook and waiter resolution for committed entries (under mu,
// in commit order), then transmission of every envelope the steps
// returned, in order and unfiltered. Steps that produced
// neither envelopes nor applies made nothing visible, so their saves
// stay buffered for the next barrier. A durability failure halts the
// replica — acknowledging or gossiping state the disk refused would turn
// the next crash into the split-brain the log exists to prevent, so the
// replica goes silent (crash-stop) instead.
func (r *Replica[C]) dispatch(evs []Event[C]) {
	r.mu.Lock()
	out, applied := r.out[:0], r.applied[:0]
	for _, ev := range evs {
		res := r.core.Step(ev)
		out = append(out, res.Out...)
		applied = append(applied, res.Applied...)
	}
	r.out, r.applied = out, applied
	if r.cfg.Persist != nil && len(out)+len(applied) > 0 {
		//holint:allow lockorder the sync-before-send barrier is atomic with the steps by design: no envelope or ack of theirs may become visible before the fsync, and every other mu path is a step that must serialize behind the barrier anyway (DESIGN.md §11)
		if err := r.cfg.Persist.Sync(); err != nil {
			r.halt(err)
			return
		}
	}
	for _, ae := range applied {
		res := ApplyResult{Slot: ae.Slot, Dup: !ae.Fresh}
		if ae.Fresh && r.cfg.Apply != nil {
			res.Out = r.cfg.Apply(ae.Slot, ae.Entry)
		}
		key := waiterKey{ae.Entry.Client, ae.Entry.Seq}
		if ch, ok := r.waiters[key]; ok {
			//holint:allow lockorder the waiter channel is buffered(1) and this delete makes it the sole send ever, so the send cannot block
			ch <- res
			delete(r.waiters, key)
		}
	}
	if r.cfg.Persist != nil && r.cfg.SnapshotEvery > 0 {
		if n, _ := r.core.LogFingerprint(); n >= r.snapLast+uint64(r.cfg.SnapshotEvery) {
			// The Apply hook just ran for everything in the log, so the
			// app snapshot lines up with the protocol snapshot.
			if err := r.checkpointLocked(); err != nil {
				r.halt(err)
				return
			}
		}
	}
	r.mu.Unlock()
	for _, o := range out {
		if o.To == AllPeers {
			r.broadcast(o.Env)
		} else {
			r.cfg.Transport.Send(o.To, o.Env)
		}
	}
}

// halt records the first durability failure and stops the replica as Stop
// does: the loop ends and every outstanding waiter is released. Callers
// hold mu; halt releases it.
func (r *Replica[C]) halt(err error) {
	if r.persistErr == nil {
		r.persistErr = err
	}
	r.cancel()
	r.releaseWaiters()
	r.mu.Unlock()
}

// broadcast sends env to every peer but self.
func (r *Replica[C]) broadcast(env Envelope) {
	for q := 0; q < r.cfg.N; q++ {
		if p := core.ProcessID(q); p != r.cfg.Self {
			r.cfg.Transport.Send(p, env)
		}
	}
}

// stopTimer stops t and drains a pending fire.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
