// Scripted adversary probes for the replica checker — the seeded-mutant
// regression suite. Exhaustive exploration (replica.go) proves the
// absence of safety violations within its bounds, but the two bugs that
// review actually caught in internal/live are LIVENESS-shaped or live
// deep along one adversarial schedule, where blind breadth-first search
// is the wrong tool: a livelock is not a reachable bad state, and the
// locked-vote split needs a ~30-event schedule that a state budget
// drowns in. Each probe therefore drives the real live.ReplicaCore step
// function through ONE deterministic adversarial schedule — full
// control over which envelopes deliver, drop, or time out — and runs
// the same invariant engine over the outcome. Every probe is its own
// control experiment: the identical schedule runs against the mutated
// core (the seeded bug re-enabled) and the real core, and the checker
// must flag the former and pass the latter. A probe that fails its
// control proves nothing about its mutant.
//
// The three probes mirror the three review findings:
//
//   - CheckFreshRetry: live.MutFreshRetry restores the pre-review retry
//     that restarted an undecided slot with a FRESH instance, discarding
//     LastVoting's locked (x, ts). Schedule: phase 1 decides at one
//     adopter alone (its own ack and the coordinator's vote, counted as
//     the coordinator's ack, are a majority; every ack is lost), its sync
//     push is lost, and the coordinator — born locked, undecided — and the
//     third replica starve past the retry budget, then run freely. Real
//     core: the coordinator's ts=1 lock steers phase 3 to the decided
//     value. Mutant: the restart forgets the lock, and the fresh instance,
//     born locked to a fresh merge, is voted and decided — a split
//     decision the invariants flag.
//   - CheckDrift: live.MutNoJump removes the jump rule (node.go). Two
//     survivors of a crash run in lockstep one round apart, the phase-1
//     coordinator behind. Real core: the laggard jumps level on the first
//     future-round message and the pair decides in the next phase.
//     Mutant: the leader drops every stale message — the coordinator's
//     vote and its ack, which names the vote, alike — no coordinator ever
//     assembles a quorum, and the pair spins forever — the drift
//     livelock, reported as a liveness finding.
//   - CheckStall: no core mutation — the network lies (StripRiders: round
//     messages and decision pushes arrive without the batches they carry,
//     which no link can do) and the proposer then crash-stops. The
//     deciders hold an id without its contents — the decided-unheld
//     invariant flags that — and the decided batch's only copy dies with
//     its proposer: the survivors can never apply, the availability stall
//     the replica's fault envelope once documented, surfaced as a finding.
//     The control run (an honest network, the same crash) has every
//     replica apply: the votes brought the contents, so the stall is
//     unreachable without the lie.
//
// One probe covers the forward + merge proposal path:
//
//   - CheckMergeSkip: live.MutMergeSkip makes propose()'s merge drop the
//     first unapplied entry of a peer-sourced piece and keep the rest.
//     Schedule: p1 accepts (client 2, seq 1) and (client 2, seq 2) while
//     slots 1 and 2 fill its window and forwards both; slot 3's
//     coordinator p0 merges the forward. Real core: p0 proposes both, in order. Mutant:
//     p0 proposes seq 2 alone, it applies, the high-water mark passes
//     seq 1 and that command is gone — no two replicas disagree, nothing
//     applies twice, so only the session-gap invariant sees it.
//
// Three further probes cover the crash-RECOVERY fault (a kill -9 with
// stable storage intact: live.RestoreReplicaCore, the production restore
// path, over the core's own PersistState). Their mutants are not bits in
// the core but a disk that lies — the state is edited on its way back:
//
//   - CheckForgetVote: MutForgetVote makes recovery discard the
//     persisted locked vote. Schedule: phase 1 decides at p1 alone with
//     p0, the coordinator, holding its birth lock (x=A, ts=1); p0
//     crash-recovers, then p0 and p2 run freely. Real core: the
//     restored lock steers the next phase back to A. Mutant: recovery
//     comes back lockless and reopens the slot as Coord(1), born locked
//     to what it holds — a fresh merge of the two offered batches, any id
//     but A — and the pair decides it against p1's applied A — the split
//     the paper's stable-storage requirement exists to prevent.
//   - CheckTSRegress and CheckReliveAck: MutForgetRound makes
//     recovery drop the round saved with the vote, so the restarted
//     replica re-runs its slot from round 1 and meets whatever of its
//     first run is still in the network — the recovery this repo had
//     until PR 15. The real core resumes past the last round it sent
//     in and never hears them. Two schedules, one per half of the lock
//     argument. TSRegress: p1's phase-2 vote ⟨B⟩ is held up on its way to
//     p0, phase 3 locks A at p0 and p2 (ts 3) and p2 decides it alone, p0
//     crash-recovers, and the old ⟨B⟩ arrives. Real core: a stale round,
//     and the next phase p0 or p1 coordinates votes A. Mutant: it is
//     round 5 again, p0 becomes (B, ts 2) — the lock is gone, the pair
//     decides B. ReliveAck: p0 votes A in phase 1 and adopts it alone,
//     its vote and ack to p2 held up; p2's ts-0 estimate lets p1 vote B
//     in phase 2, which p0 and p1 decide; p2 crash-recovers and the held
//     pair arrives. Real core: stale rounds, p2 learns B by sync. Mutant:
//     p2 adopts and acks phase 1 AFTER telling phase 2 it had adopted
//     nothing, and decides A on its own ack and p0's old one.
//   - CheckStallRecovery: CheckStall's lying network, but the proposer
//     crash-RECOVERS instead of crash-stopping. Its batch hit its own
//     disk in the same step that proposed the id (quorum-durable
//     dissemination), so the rebooted proposer answers the survivors'
//     idle sync pulls with a push that carries it, and everyone applies:
//     even a lost rider is only a delay for replicas running with a
//     Persister. Contrast with CheckStall(true), where the same schedule
//     minus the disk strands the batch forever.

package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/wal"
)

// ProbeResult is the outcome of one scripted probe run.
type ProbeResult struct {
	// Violation is a safety violation the invariant engine found.
	Violation *ReplicaViolation
	// Findings are non-safety observations (stall, livelock).
	Findings []ReplicaFinding
	// Applied is each replica's commit index at the end of the script.
	Applied []uint64
}

// Flagged reports whether the probe surfaced anything.
func (r ProbeResult) Flagged() bool { return r.Violation != nil || len(r.Findings) > 0 }

// scen drives cores through a deterministic schedule. The wire is a
// FIFO of expanded (single-destination) envelopes; the script decides
// per message whether it delivers or drops.
type scen struct {
	n     int
	cfgs  []live.CoreConfig[byte]
	cores []*live.ReplicaCore[byte]
	wire  []live.Outbound
	dead  uint8
	// disk, when set, edits the durable state a recovering replica reads
	// back: the seeded crash-recovery bugs.
	disk func(*wal.State)
	// net, when set, edits every envelope on its way onto the wire: a
	// network that lies.
	net func(live.Envelope) live.Envelope
}

// MutForgetVote is the disk that loses every persisted vote: the
// recovered replica restarts its slot from scratch and can help decide a
// value a pre-crash quorum that included its vote already contradicts —
// the split decision durability exists to prevent.
func MutForgetVote(st *wal.State) { st.Votes = nil }

// MutForgetRound is the disk that keeps each vote and loses the round
// saved with it (the record's leading uvarint reads 0), so the slot
// reopens at round 1 and every round it already sent in is lived a second
// time, among the old messages still in the network: it re-adopts a vote
// below its lock, or acks a phase behind its own later estimate — each
// enough to decide two values.
func MutForgetRound(st *wal.State) {
	//holint:allow nodeterminism each record is rewritten independently of the others
	for slot, vote := range st.Votes {
		if _, n := binary.Uvarint(vote); n > 0 {
			st.Votes[slot] = append([]byte{0}, vote[n:]...)
		}
	}
}

// StripRiders is the network that delivers a round message without the
// batch riding it, and a decision push with each slot's batch id and no
// contents. No link can — the batches are part of the envelope's payload
// — so the checker builds it outside the core, the way MutForgetVote
// builds a lying disk: it is how the dissemination-window stall, closed
// by riders and self-contained pushes, is still reached (CheckStall).
func StripRiders(env live.Envelope) live.Envelope {
	switch env.Kind {
	case live.KindRound:
		if _, rider, ok := live.SplitRound(env.Payload); ok && len(rider) > 0 {
			env.Payload = env.Payload[:len(env.Payload)-len(rider)]
		}
	case live.KindSync:
		var pairs []byte
		count := uint64(0)
		live.SyncPairs(env.Payload, func(slot uint64, bid int64, _ []byte) bool {
			id := binary.AppendVarint(nil, bid)
			pairs = append(binary.AppendUvarint(binary.AppendUvarint(pairs, slot), uint64(len(id))), id...)
			count++
			return true
		})
		env.Payload = append(binary.AppendUvarint(nil, count), pairs...)
	}
	return env
}

// newScen builds an n-replica LastVoting group with a budget of slots.
// The probes need the coordinated algorithm: locked votes and coordinator
// quorums are what the seeded bugs break.
func newScen(n int, mut live.Mutation, slots uint64) *scen {
	s := &scen{n: n}
	for p := 0; p < n; p++ {
		cfg := live.CoreConfig[byte]{
			Self:      core.ProcessID(p),
			N:         n,
			Algorithm: lastvoting.Algorithm{},
			Msg:       lastvoting.WireCodec{},
			Batch:     ByteBatchCodec{},
			Mutation:  mut,
			MaxRound:  64,
			MaxSlots:  slots,
		}
		c, err := live.NewReplicaCore(cfg)
		if err != nil {
			panic(fmt.Sprintf("modelcheck: probe config: %v", err))
		}
		s.cfgs = append(s.cfgs, cfg)
		s.cores = append(s.cores, c)
	}
	return s
}

// stepOn feeds one event to a core and queues its output.
func (s *scen) stepOn(p core.ProcessID, ev live.Event[byte]) {
	if s.dead&(1<<uint(p)) != 0 {
		return
	}
	res := s.cores[p].Step(ev)
	for _, o := range res.Out {
		if s.net != nil {
			o.Env = s.net(o.Env)
		}
		if o.To == live.AllPeers {
			for q := 0; q < s.n; q++ {
				if pid := core.ProcessID(q); pid != p {
					s.wire = append(s.wire, live.Outbound{To: pid, Env: o.Env})
				}
			}
		} else {
			s.wire = append(s.wire, o)
		}
	}
}

func (s *scen) submit(p core.ProcessID, client, seq uint64, cmd byte) {
	s.stepOn(p, live.Event[byte]{Kind: live.EvSubmit, Client: client, Seq: seq, Cmd: cmd})
}
func (s *scen) tick(p core.ProcessID)  { s.stepOn(p, live.Event[byte]{Kind: live.EvTick}) }
func (s *scen) crash(p core.ProcessID) { s.dead |= 1 << uint(p) }

// timeoutAll fires every replica's round timer, in process order.
func (s *scen) timeoutAll() {
	for p := 0; p < s.n; p++ {
		s.timeout(core.ProcessID(p))
	}
}

// timeoutIn fires the round timer of every replica whose open slot is in
// round r: a script's lockstep through rounds, which Coord(1) enters a
// round ahead (it settles the vote round on its own vote at entry).
func (s *scen) timeoutIn(r core.Round) {
	for p := 0; p < s.n; p++ {
		for _, sr := range s.cores[p].OpenRounds(nil) {
			if sr.Round == r {
				s.stepOn(core.ProcessID(p), live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot})
			}
		}
	}
}

// timeout closes the current round of every slot p has open, lowest
// first (one-slot scripts read it as "p's round timer fires").
func (s *scen) timeout(p core.ProcessID) {
	for _, sr := range s.cores[p].OpenRounds(nil) {
		s.stepOn(p, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot})
	}
}

// recover models a kill -9 followed by a restart from stable storage:
// the core is replaced by what the production restore path builds from
// its durable state (volatile round position, pending submissions, and
// peer bookkeeping lost; log, dedup state, held batches, and any
// persisted locked vote kept) — read back through s.disk, if one is set.
// Anything a preceding crash(p) swallowed stays lost — exactly the
// messages a down process never receives.
func (s *scen) recover(p core.ProcessID) {
	s.dead &^= 1 << uint(p)
	st := s.cores[p].PersistState()
	if s.disk != nil {
		s.disk(st)
	}
	c, err := live.RestoreReplicaCore(s.cfgs[p], st)
	if err != nil {
		panic(fmt.Sprintf("modelcheck: recovery of p%d failed: %v", p, err))
	}
	s.cores[p] = c
}

// deliverWhere removes every CURRENTLY queued message matching pred, in
// order, and delivers each to its destination (messages a delivery
// emits queue up but are not delivered in this pass). Crashed
// destinations swallow their messages.
func (s *scen) deliverWhere(pred func(to core.ProcessID, env live.Envelope) bool) {
	batch := s.wire
	s.wire = nil
	var keep []live.Outbound
	for _, o := range batch {
		if pred(o.To, o.Env) {
			s.stepOn(o.To, live.Event[byte]{Kind: live.EvEnvelope, Env: o.Env})
		} else {
			keep = append(keep, o)
		}
	}
	// Preserve FIFO order: unmatched survivors precede newly emitted.
	s.wire = append(keep, s.wire...)
}

// dropWhere removes matching queued messages without delivering them.
func (s *scen) dropWhere(pred func(to core.ProcessID, env live.Envelope) bool) {
	keep := s.wire[:0]
	for _, o := range s.wire {
		if !pred(o.To, o.Env) {
			keep = append(keep, o)
		}
	}
	s.wire = keep
}

// take removes matching queued messages and returns them: held up in
// the network, for the script to hand back to s.wire later.
func (s *scen) take(pred func(to core.ProcessID, env live.Envelope) bool) []live.Outbound {
	var held []live.Outbound
	s.dropWhere(func(to core.ProcessID, env live.Envelope) bool {
		if pred(to, env) {
			held = append(held, live.Outbound{To: to, Env: env})
			return true
		}
		return false
	})
	return held
}

// freeRunWithout lets the two replicas other than silent exchange round
// traffic in lockstep — deliver, time both out, lose everything that is
// not round traffic between them — for long enough to finish any phase
// one of them coordinates. silent is done: nothing reaches or leaves it.
func (s *scen) freeRunWithout(silent core.ProcessID) {
	between := func(to core.ProcessID, env live.Envelope) bool {
		return env.Kind == live.KindRound && to != silent && env.From != silent
	}
	for i := 0; i < 60; i++ {
		s.deliverWhere(between)
		for p := 0; p < s.n; p++ {
			if pid := core.ProcessID(p); pid != silent {
				s.timeout(pid)
			}
		}
		s.dropWhere(func(to core.ProcessID, env live.Envelope) bool { return !between(to, env) })
	}
}

// disseminate hands every replica the contents of every batch minted so
// far, without moving any round: each batch rides a null round message of
// slot 0 — a slot before every log, so nobody hears the message and only
// its rider is kept. Batches otherwise travel only with the messages that
// name them, and the scripts below that need contents everywhere before
// their rounds start say so with this.
func (s *scen) disseminate() {
	for q := 0; q < s.n; q++ {
		null, err := s.cfgs[q].Msg.Encode(nil)
		if err != nil {
			panic(fmt.Sprintf("modelcheck: probe codec: %v", err))
		}
		for k := int64(1); k <= s.cores[q].BatchesCreated(); k++ {
			bid := int64(q+1)<<40 | k
			entries, _ := s.cores[q].EntriesOf(bid)
			payload := append(binary.AppendUvarint(nil, uint64(len(null))), null...)
			payload = ByteBatchCodec{}.AppendEntries(binary.AppendVarint(payload, bid), entries)
			for p := 0; p < s.n; p++ {
				if p != q {
					s.stepOn(core.ProcessID(p), live.Event[byte]{Kind: live.EvEnvelope, Env: live.Envelope{
						Kind: live.KindRound, From: core.ProcessID(q), Payload: payload}})
				}
			}
		}
	}
}

// Common predicates.
func anyMsg(core.ProcessID, live.Envelope) bool { return true }
func kindIs(k live.Kind) func(core.ProcessID, live.Envelope) bool {
	return func(_ core.ProcessID, env live.Envelope) bool { return env.Kind == k }
}
func roundAt(r core.Round) func(core.ProcessID, live.Envelope) bool {
	return func(_ core.ProcessID, env live.Envelope) bool {
		return env.Kind == live.KindRound && env.Round == r
	}
}
func roundAtFromTo(r core.Round, from, p core.ProcessID) func(core.ProcessID, live.Envelope) bool {
	return func(to core.ProcessID, env live.Envelope) bool {
		return env.Kind == live.KindRound && env.Round == r && env.From == from && to == p
	}
}

// finish runs the invariant engine over the script's end state.
func (s *scen) finish() ProbeResult {
	findings := map[string]*ReplicaFinding{}
	isLive := func(p core.ProcessID) bool { return s.dead&(1<<uint(p)) == 0 }
	inFlight := func(bid int64) bool {
		for _, o := range s.wire {
			if isLive(o.To) && slices.Contains(carried(o.Env), bid) {
				return true
			}
		}
		return false
	}
	crashes := 0
	for p := 0; p < s.n; p++ {
		if !isLive(core.ProcessID(p)) {
			crashes++
		}
	}
	res := ProbeResult{
		Violation: checkReplicaInvariants(s.n, s.cores, isLive, inFlight, crashes, findings),
	}
	res.Findings = sortedFindings(findings)
	for _, c := range s.cores {
		logLen, _ := c.LogFingerprint()
		res.Applied = append(res.Applied, logLen)
	}
	return res
}

// lockAtOneAdopter is the opening both locked-vote probes share: phase 1
// (rounds 1–3, coordinator p0) driven to a decision at p1 ALONE, with p0
// holding the lock undecided and p2 in the dark.
func (s *scen) lockAtOneAdopter() {
	// Workload: p0 proposes batch A = (1<<40)|1, p2 batch B = (3<<40)|1.
	// A replica holding both and no lock proposes their merge under a
	// fresh id — anything but A, which is all the bait has to be for a
	// mutant that forgot its lock on A.
	s.submit(0, 1, 1, 'a')
	s.submit(2, 3, 1, 'c')

	// Dissemination: everyone holds the contents of A and B (p1 must be
	// able to re-propose B's command and to apply A).
	s.disseminate()

	// Round 1 is the vote round: p0 was born locked to A, x=A ts=1 — THE
	// LOCK — settled it on its own vote and sent its ack, the vote again.
	// The vote reaches p1 only; p2 stays in the dark. p1 adopts it and
	// enters the ack round, where its own ack and p0's vote, counted as
	// p0's ack, are a majority: it decides A there and then, and applies
	// it.
	s.deliverWhere(roundAtFromTo(1, 0, 1))
	s.dropWhere(roundAt(1))
	// Round 2: every ack is lost, p0's included, and p1's eager decision
	// push with them. p0, counting itself and no ack, does not decide.
	s.dropWhere(anyMsg)
	s.timeout(0)
	s.dropWhere(anyMsg)
}

// CheckFreshRetry runs the locked-vote-discard schedule. With mutated
// (live.MutFreshRetry) the result must contain an agreement violation;
// without, it must be clean with every replica applying the same batch.
func CheckFreshRetry(mutated bool) ProbeResult {
	var mut live.Mutation
	if mutated {
		mut = live.MutFreshRetry
	}
	s := newScen(3, mut, 1)
	s.lockAtOneAdopter()

	// Starvation: p0 and p2 time out through dead phases (their round
	// messages all lost). The real cores just climb rounds, keeping
	// their state; mutated cores reach the retry round (10) and restart
	// with FRESH instances — p0 forgets its ts=1 lock on A and, Coord(1)
	// of the fresh instance, votes a fresh merge of A and B; p2
	// re-proposes a new batch too.
	for i := 0; i < 12; i++ {
		s.timeout(0)
		s.timeout(2)
		s.dropWhere(anyMsg)
	}

	// Free run: p0 and p2 exchange round traffic in lockstep (p1 stays
	// silent — it is done; everything to or from it is dropped). The real
	// pair completes a p2-coordinated phase with p0's ts=1 lock steering
	// the vote back to A: agreement holds. The mutated pair, the lock
	// forgotten, decides one of those fresh batches — splitting from p1's
	// applied A.
	s.freeRunWithout(1)
	return s.finish()
}

// CheckDrift runs the round-drift schedule against a two-survivor
// group. With mutated (live.MutNoJump) neither survivor ever decides —
// reported as a drift-livelock finding; without, the jump rule realigns
// the pair and both decide and apply.
func CheckDrift(mutated bool) ProbeResult {
	var mut live.Mutation
	if mutated {
		mut = live.MutNoJump
	}
	s := newScen(3, mut, 1)
	s.crash(2)

	s.submit(0, 1, 1, 'a')
	// p1 adopts batch A and starts; everything else in flight — p0's vote
	// included — is lost.
	s.disseminate()
	s.dropWhere(anyMsg)
	// Establish the drift: p1 times out twice on its own, moving one round
	// ahead of p0, the coordinator — which settled its vote round at entry
	// and sits in the ack round. (The other way round, p0's ack would reach
	// p1 in time and carry the vote p1 missed: p1 decides phase 1 on it,
	// drift or not.)
	s.timeout(1)
	s.timeout(1)

	// Lockstep: every message delivers, then each survivor times out once.
	// With the jump rule p0 levels up on p1's future-round message
	// immediately and a p1-coordinated phase decides. Without it, p1 is
	// perpetually one round ahead and drops p0's traffic as stale — p0's
	// vote and its ack alike — and no coordinator ever hears a quorum.
	const iters = 40
	for i := 0; i < iters; i++ {
		s.deliverWhere(anyMsg)
		s.timeout(0)
		s.timeout(1)
	}

	res := s.finish()
	if res.Violation == nil && res.Applied[0] == 0 && res.Applied[1] == 0 {
		rounds := s.cores[0].Counters().Rounds + s.cores[1].Counters().Rounds
		res.Findings = append(res.Findings, ReplicaFinding{
			Kind: "drift-livelock",
			Message: fmt.Sprintf(
				"no decision after %d lockstep timeout rounds (%d rounds executed) with a live majority",
				iters, rounds),
			Count: 1,
		})
	}
	return res
}

// decideEverywhere runs the round traffic of a fault-free phase 1 whose
// coordinator, p0, has opened the slot: two rounds, and all three
// replicas have decided. Everything else in flight is then lost.
func (s *scen) decideEverywhere() {
	s.deliverWhere(kindIs(live.KindRound)) // p0's vote and its ack: p1 and p2 join the slot, adopt, ack and DECIDE
	s.deliverWhere(kindIs(live.KindRound)) // their acks: p0 decides slot 1 too and applies its own batch
	s.dropWhere(anyMsg)
}

// CheckStall runs the dissemination-window schedule: the batch ID decides
// everywhere, and then the proposer crash-stops. With strip=true the
// network strips the batch from the round messages that name it
// (StripRiders), so the deciders hold the id alone: the invariant engine
// reports decided-unheld and the stall finding (availability lost,
// agreement intact). With strip=false the same schedule is clean: the
// vote brought the contents, and every replica applied before the crash.
func CheckStall(strip bool) ProbeResult {
	s := newScen(3, 0, 1)
	if strip {
		s.net = StripRiders
	}
	s.submit(0, 1, 1, 'a')

	// Phase 1 runs to a decision at all three replicas — agreement needs
	// only the batch ID, not its contents.
	s.decideEverywhere()

	// Crash-stop the proposer. Whoever lacks the contents can never have
	// it pushed: the stall.
	s.crash(0)
	s.tick(1)
	s.tick(2)
	s.deliverWhere(anyMsg) // sync pulls die with p0 or find nothing to push
	return s.finish()
}

// CheckMergeSkip runs the forwarded-commands schedule over three slots
// with every message delivered. With mutated (live.MutMergeSkip) slot 3
// commits client 2's seq 2 without its seq 1 — a session-gap violation;
// without, slot 3 commits both in order and the run is clean with every
// replica at commit index 3.
func CheckMergeSkip(mutated bool) ProbeResult {
	var mut live.Mutation
	if mutated {
		mut = live.MutMergeSkip
	}
	s := newScen(3, mut, 3)

	// p0 opens slots 1 and 2 with one command each. Their votes reach p2,
	// which decides both; p1's copies are slow, and p2's round-1 messages
	// ask p1 into both slots: its window is full, and so is p0's, which
	// waits in both ack rounds.
	s.submit(0, 1, 1, 'a')
	s.submit(0, 1, 2, 'A')
	slow := s.take(func(to core.ProcessID, _ live.Envelope) bool { return to == 1 })
	s.deliverWhere(anyMsg)
	s.deliverWhere(func(to core.ProcessID, env live.Envelope) bool {
		return to == 1 && env.Kind == live.KindRound && env.Round == 1
	})

	// p1 accepts two commands of one session with no slot to open for
	// them, so it forwards its pending prefix — [b], then [b c] — and the
	// forwards reach p0 while its window is still full.
	s.submit(1, 2, 1, 'b')
	s.submit(1, 2, 2, 'c')
	s.deliverWhere(kindIs(live.KindForward))

	// Free run, nothing lost: slots 1 and 2 decide everywhere, then slot 3
	// opens with p0 (phase-1 coordinator, whose vote is its own proposal)
	// proposing the merge of p1's forward.
	s.wire = append(slow, s.wire...)
	for i := 0; i < 40; i++ {
		s.deliverWhere(anyMsg)
	}
	return s.finish()
}

// CheckForgetVote runs the recovery-forgets-the-lock schedule. With
// mutated (MutForgetVote) the result must contain an agreement
// violation; without, the restored vote steers the surviving pair back
// to the decided batch and the run is clean with every replica applying
// slot 1.
func CheckForgetVote(mutated bool) ProbeResult {
	s := newScen(3, 0, 1)
	if mutated {
		s.disk = MutForgetVote
	}
	// p1 decides A alone with p0 holding the lock (x=A, ts=1); a lockless
	// recovery re-proposes the merge of the batches it holds under a fresh
	// id — not A: the bait.
	s.lockAtOneAdopter()

	// kill -9 p0, restart from stable storage. The persisted instance
	// state is the only memory of the lock; the mutant drops it.
	s.recover(0)

	// Free run: p0 and p2 exchange round traffic (p1 stays silent — it
	// is done). Real pair: the recovered p0 resumes slot 1 past the last
	// round it sent in, and a p2-coordinated phase sees p0's ts=1 estimate
	// and votes A — agreement with p1. Mutated pair: p0 reopens slot 1
	// from round 1 as Coord(1), born locked to a fresh merge, and votes it;
	// what decides splits from p1's applied A.
	s.freeRunWithout(1)
	return s.finish()
}

// CheckTSRegress runs the stale-vote-after-restart schedule. With
// mutated (MutForgetRound) the result must contain an agreement
// violation; without, the recovered replica is past the old vote's round
// and the run is clean with every replica applying the batch p2 decided.
func CheckTSRegress(mutated bool) ProbeResult {
	s := newScen(3, 0, 1)
	if mutated {
		s.disk = MutForgetRound
	}
	all := s.timeoutAll

	// p0 proposes batch A, p1 batch B; p2, hearing of A first, proposes A.
	// Everyone holds both contents.
	s.submit(0, 1, 1, 'a')
	s.submit(1, 2, 1, 'b')
	s.disseminate()

	// Phase 1 (rounds 1–3, coordinator p0) is lost whole: p0 keeps its
	// birth lock, (A, ts 1), and nothing else happens.
	for r := core.Round(1); r <= 3; r++ {
		s.dropWhere(roundAt(r))
		s.timeoutIn(r)
	}
	// Phase 2 (rounds 4–7, coordinator p1). Round 4: p1 hears p2's
	// estimate and its own, both ts 0 — not p0's — and votes its own B.
	s.deliverWhere(roundAtFromTo(4, 2, 1))
	s.dropWhere(roundAt(4))
	all()
	// Round 5: the vote ⟨B⟩ to p0 is HELD UP in the network; the one to
	// p2 is lost. p1 adopts its own vote: (B, ts 2).
	stale := s.take(roundAtFromTo(5, 1, 0))
	for r := core.Round(5); r <= 7; r++ {
		s.dropWhere(roundAt(r))
		all()
	}
	// Phase 3 (rounds 8–11, coordinator p2). Round 8: p2 hears p0's
	// estimate (A, ts 1) and its own — not p1's — and votes A. Round 9:
	// the vote reaches p0; both adopt (A, ts 3) — THE LOCK. Round 10: p0's
	// ack reaches p2, which decides A on two acks and applies it; p0, one
	// ack short, does not, and p2's decision push is lost.
	s.deliverWhere(roundAtFromTo(8, 0, 2))
	s.dropWhere(roundAt(8))
	all()
	s.deliverWhere(roundAtFromTo(9, 2, 0))
	s.dropWhere(roundAt(9))
	all()
	s.deliverWhere(roundAtFromTo(10, 0, 2))
	s.dropWhere(roundAt(10))
	all()
	s.dropWhere(anyMsg)

	// kill -9 p0, restart from stable storage: (A, ts 3) comes back, and
	// slot 1 resumes past round 11 — or, mutated, reopens at round 1.
	// Then the held vote arrives: a stale round to the real core; the
	// mutant jumps to round 5, phase 2's vote round, and hears phase 2's
	// coordinator say ⟨B⟩.
	s.recover(0)
	s.wire = append(s.wire, stale...)
	s.deliverWhere(anyMsg)
	s.timeout(0)

	// Free run: p0 and p1 exchange round traffic (p2 stays silent — it is
	// done). Real pair: p0 still holds (A, ts 3) against p1's (B, ts 2),
	// so whichever of them coordinates next votes A — agreement with p2.
	// Mutated pair: both hold (B, ts 2), and decide it.
	s.freeRunWithout(2)
	return s.finish()
}

// CheckReliveAck runs the ack-after-a-later-estimate schedule. With
// mutated (MutForgetRound) the result must contain an agreement
// violation; without, the recovered replica is past the rounds it sent
// in and the run is clean with every replica applying the batch p0 and p2
// decided.
func CheckReliveAck(mutated bool) ProbeResult {
	s := newScen(3, 0, 1)
	if mutated {
		s.disk = MutForgetRound
	}
	lost := func(from, to core.Round) {
		for r := from; r <= to; r++ {
			s.dropWhere(roundAt(r))
			s.timeoutIn(r)
		}
	}

	// p0 proposes batch A, p1 batch B. Everyone holds both contents.
	s.submit(0, 1, 1, 'a')
	s.submit(1, 2, 1, 'b')
	s.disseminate()

	// Phase 1 (rounds 1–3, coordinator p0). p0's vote ⟨A⟩ and its ack to p2
	// — the vote again — are HELD UP in the network, the rest is lost: p0
	// alone holds (A, ts 1), one ack short of deciding.
	held := s.take(roundAtFromTo(1, 0, 2))
	lost(1, 1)
	held = append(held, s.take(roundAtFromTo(2, 0, 2))...)
	lost(2, 3)
	// Phase 2 (rounds 4–7, coordinator p1). Round 4: p1 hears p2's estimate
	// — ts 0: p2 adopted nothing in phase 1 — and its own (B, ts 0), not
	// p0's, and votes B. Round 5: the vote reaches p0, not p2. Round 6: p0
	// and p1 decide B on each other's acks; their decision pushes are lost.
	s.deliverWhere(roundAtFromTo(4, 2, 1))
	lost(4, 4)
	s.deliverWhere(roundAtFromTo(5, 1, 0))
	lost(5, 5)
	s.deliverWhere(func(to core.ProcessID, env live.Envelope) bool {
		return roundAt(6)(to, env) && to != 2 && env.From != 2
	})
	lost(6, 6)
	s.dropWhere(anyMsg)

	// kill -9 p2, restart from stable storage: its ts-0 estimate comes
	// back, and slot 1 resumes past round 7 — or, mutated, reopens at
	// round 1. Then the held pair arrives: stale rounds to the real core;
	// to the mutant phase 1's vote ⟨A⟩ in re-run round 1 and p0's ack in
	// re-run round 2. It adopts, acks, and counts two acks of three: A,
	// against the B its peers applied.
	s.recover(2)
	s.wire = append(s.wire, held...)
	s.deliverWhere(anyMsg)
	s.timeout(2)

	// Nothing lost from here on: p2's round traffic for a slot its peers
	// closed is answered with the decision.
	for i := 0; i < 4; i++ {
		s.deliverWhere(anyMsg)
	}
	return s.finish()
}

// CheckStallRecovery reruns CheckStall's dissemination-window schedule
// with a crash-RECOVERING proposer: the same lie while the slot decides,
// the same total batch loss on the wire, but the proposer's disk holds the
// contents (they were persisted in the step that proposed the id), so
// after the reboot the survivors' idle sync pulls draw a push that carries
// them and every replica applies slot 1 — no stall finding, no violation.
// This is the closure proof the live/replica.go fault-envelope note points
// at.
func CheckStallRecovery() ProbeResult {
	s := newScen(3, 0, 1)
	// THE WINDOW: batch A's contents never reach anyone over the wire.
	s.net = StripRiders
	s.submit(0, 1, 1, 'a')

	// Phase 1 runs to a decision at all three replicas (id only).
	s.decideEverywhere()

	// kill -9 the only holder inside the window — then reboot it from
	// its write-ahead state. The batch came back with it, and the window
	// is over: the network stops lying.
	s.crash(0)
	s.recover(0)
	s.net = nil

	// The survivors, idle, ask for decisions; the rebooted proposer's
	// answer carries the contents and lets both apply.
	s.tick(1)
	s.tick(2)
	s.deliverWhere(kindIs(live.KindSyncPull))
	s.deliverWhere(kindIs(live.KindSync))
	return s.finish()
}

// roundOf matches the round traffic of one slot.
func roundOf(slot uint64) func(core.ProcessID, live.Envelope) bool {
	return func(_ core.ProcessID, env live.Envelope) bool {
		return env.Kind == live.KindRound && env.Slot == slot
	}
}

// CheckWindowDisjoint runs the lost-head schedule of the slot window.
// p0 accepts two commands of one session back to back, so it opens slot
// 1 with [a] and slot 2 while slot 1 still runs; then everything p0
// says about slot 1 — A's contents included — is lost. Slot 2's vote asks
// the other two into both slots with p0's slot-2 proposal riding it, so
// they propose that batch for slot 1 too and decide it there without p0,
// and slot 2 decides it again. Real core: that proposal OVERLAPS slot
// 1's, [a b], so both commands commit. With mutated
// (live.MutWindowDisjoint) it is the disjoint chunk [b]: seq 2 applies,
// the mark passes seq 1, and a is gone — a session-gap violation, the
// only invariant that sees it.
func CheckWindowDisjoint(mutated bool) ProbeResult {
	var mut live.Mutation
	if mutated {
		mut = live.MutWindowDisjoint
	}
	s := newScen(3, mut, 2)
	s.submit(0, 1, 1, 'a')
	s.submit(0, 1, 2, 'b')

	// Slot 1 is cut off at p0, both ways, for the whole run.
	lost := func(to core.ProcessID, env live.Envelope) bool {
		return env.Slot == 1 && env.Kind == live.KindRound && (env.From == 0 || to == 0)
	}
	s.dropWhere(lost)
	// Slot 2's round-1 traffic asks p1 and p2 into slots 1 and 2, p0's
	// slot-2 batch riding it: both propose that batch for both.
	s.deliverWhere(kindIs(live.KindRound))
	// Slot 2 runs with nothing lost (p0, phase-1 coordinator, votes its
	// own proposal); slot 1 advances at p1 and p2 by timeouts, through a
	// phase p0 never coordinates into the one p1 does.
	for i := 0; i < 20; i++ {
		s.dropWhere(lost)
		s.deliverWhere(anyMsg)
		for _, p := range []core.ProcessID{1, 2} {
			s.stepOn(p, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: 1})
		}
	}
	return s.finish()
}

// CheckPruneOpen runs the pruned-proposal schedule of the slot window.
// p1 accepts two commands and opens slot 1 with A = [a] and slot 2 with
// B = [a b]; its slot-2 round message, carrying B, reaches p0 and p2
// first, so both open slots 1 and 2 proposing B — and p0 is the phase-1
// coordinator, whose vote is its own proposal, in each. From there slot
// 2's rounds are held back while slot 1 decides B and applies both
// commands; a third command then opens slot 3, whose round traffic tells
// everyone that everyone has applied slot 1, and the horizon prune lets go
// of slot 1's reference to B. Real core: B is still held, because slot 2 —
// open, and proposed B — has not applied. With mutated (live.MutPruneOpen)
// all three replicas drop it as "fully applied and undecided". When slot
// 2's rounds are released, p1 and p2 adopt p0's vote with the batch riding
// it and hold B again — but p0 voted before the prune, and decides B on
// their acks holding nothing: a decided-unheld violation (every decision
// push is lost from there on, so p0 stays without it).
func CheckPruneOpen(mutated bool) ProbeResult {
	var mut live.Mutation
	if mutated {
		mut = live.MutPruneOpen
	}
	s := newScen(3, mut, 3)
	s.submit(1, 2, 1, 'a')
	s.submit(1, 2, 2, 'b')
	s.deliverWhere(roundOf(2)) // p0 and p2 join slots 1 and 2 proposing B

	notSlot2 := func(to core.ProcessID, env live.Envelope) bool { return !roundOf(2)(to, env) }
	for i := 0; i < 8; i++ {
		s.deliverWhere(notSlot2) // slot 1 decides B everywhere; slot 2 waits
	}
	s.submit(2, 3, 1, 'c')
	for i := 0; i < 8; i++ {
		s.deliverWhere(notSlot2) // slot 3 opens everywhere and decides
	}
	for i := 0; i < 12; i++ {
		s.dropWhere(kindIs(live.KindSync))
		s.deliverWhere(anyMsg) // slot 2's rounds are released
	}
	return s.finish()
}
