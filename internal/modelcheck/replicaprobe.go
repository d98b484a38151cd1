// Scripted adversary probes for the replica checker: the seeded mutants
// the lock-step walk (walk.go) does not kill, each driven through ONE
// deterministic schedule of the real live.ReplicaCore step function — full
// control over which envelopes deliver, drop, or time out — with the same
// invariant engine run over the outcome. Every probe is its own control
// experiment: the identical schedule runs against the mutated core and the
// real core, and the checker must flag the former and pass the latter. A
// probe that fails its control proves nothing about its mutant.
//
//   - CheckFreshRetry: live.MutFreshRetry restarts an undecided slot with a
//     FRESH instance after retryAfter rounds, discarding LastVoting's locked
//     (x, ts). Schedule: phase 1 decides at one adopter alone (its own ack
//     and the coordinator's vote, counted as the coordinator's ack, are a
//     majority; every ack is lost), its sync push is lost, and the
//     coordinator — born locked, undecided — and the third replica starve
//     past the retry budget, then run freely. Real core: the coordinator's
//     ts=1 lock steers phase 3 to the decided value. Mutant: the fresh
//     instance, born locked to a fresh merge, is voted and decided — a split
//     decision. (The walk finds it at round bound 13: past its budget.)
//   - CheckDrift: live.MutNoJump removes the jump rule (node.go). Two
//     survivors of a crash run in lockstep one round apart, the phase-1
//     coordinator behind. Real core: the laggard jumps level on the first
//     future-round message and the pair decides in the next phase.
//     Mutant: the leader drops every stale message and the pair spins
//     forever — the drift livelock, a liveness finding no safety walk can
//     report (ROADMAP: termination checking).
//   - CheckWindowDisjoint and CheckPruneOpen: the slot window's two
//     mutants. Each schedule loses one slot's round traffic while another
//     slot's, from the same sender, gets through; the walk hears a sender's
//     round messages of all slots together, so it never splits them.

package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
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

// Has reports whether the probe found a finding of the kind.
func (r ProbeResult) Has(kind string) bool {
	return slices.ContainsFunc(r.Findings, func(f ReplicaFinding) bool { return f.Kind == kind })
}

// scen drives cores through a deterministic schedule. The wire is a
// FIFO of expanded (single-destination) envelopes; the script decides
// per message whether it delivers or drops.
type scen struct {
	n     int
	cores []*live.ReplicaCore[byte]
	wire  []live.Outbound
	dead  uint8
}

// newScen builds an n-replica LastVoting group with a budget of slots,
// its cores mutated with mut if mutated is set. The probes need the
// coordinated algorithm: locked votes and coordinator quorums are what the
// seeded bugs break.
func newScen(n int, slots uint64, mutated bool, mut live.Mutation) *scen {
	if !mutated {
		mut = 0
	}
	s := &scen{n: n}
	m := ReplicaModel{N: n, Slots: slots, MaxRound: 64, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}, Mutation: mut}
	for p := 0; p < n; p++ {
		c, err := live.NewReplicaCore(m.coreConfig(core.ProcessID(p)))
		if err != nil {
			panic(fmt.Sprintf("modelcheck: probe config: %v", err))
		}
		s.cores = append(s.cores, c)
	}
	return s
}

// stepOn feeds one event to a core and queues its output.
func (s *scen) stepOn(p core.ProcessID, ev live.Event[byte]) {
	if s.dead&(1<<uint(p)) != 0 {
		return
	}
	for _, o := range s.cores[p].Step(ev).Out {
		each(s.n, p, o, func(to core.ProcessID) { s.wire = append(s.wire, live.Outbound{To: to, Env: o.Env}) })
	}
}

func (s *scen) submit(p core.ProcessID, client, seq uint64, cmd byte) {
	s.stepOn(p, live.Event[byte]{Kind: live.EvSubmit, Client: client, Seq: seq, Cmd: cmd})
}
func (s *scen) crash(p core.ProcessID) { s.dead |= 1 << uint(p) }

// timeout closes the current round of every slot p has open, lowest
// first (one-slot scripts read it as "p's round timer fires").
func (s *scen) timeout(p core.ProcessID) {
	for _, sr := range s.cores[p].OpenRounds(nil) {
		s.stepOn(p, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot})
	}
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
		null, err := lastvoting.WireCodec{}.Encode(nil)
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

// CheckFreshRetry runs the locked-vote-discard schedule. With mutated
// (live.MutFreshRetry) the result must contain an agreement violation;
// without, it must be clean with every replica applying the same batch.
func CheckFreshRetry(mutated bool) ProbeResult {
	s := newScen(3, 1, mutated, live.MutFreshRetry)
	// Phase 1 (rounds 1–3, coordinator p0) is driven to a decision at p1
	// ALONE, with p0 holding the lock undecided and p2 in the dark.
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
	s := newScen(3, 1, mutated, live.MutNoJump)
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
	s := newScen(3, 2, mutated, live.MutWindowDisjoint)
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
	s := newScen(3, 3, mutated, live.MutPruneOpen)
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
