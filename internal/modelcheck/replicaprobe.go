// The one scripted probe: the mutant no kill walk (kill.go) reaches.
// live.MutNoJump removes the jump rule (node.go), which breaks liveness
// and no safety property, so there is no bad state for a walk to stop at
// (ROADMAP: termination checking). checkDrift drives the real
// live.ReplicaCore step function through ONE deterministic schedule —
// which envelopes deliver, drop, or time out — and runs the invariant
// engine over the outcome. The identical schedule runs against the mutated
// core and the real core, and the checker must flag the former and pass
// the latter.

package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
)

// scen drives cores through a deterministic schedule. The wire is a
// FIFO of expanded (single-destination) envelopes.
type scen struct {
	n     int
	cores []*live.ReplicaCore[byte]
	wire  []live.Outbound
	dead  uint8
}

// newScen builds a LastVoting group of three with one slot, its cores
// mutated with mut.
func newScen(mut live.Mutation) *scen {
	s := &scen{n: 3}
	m := ReplicaModel{N: s.n, Slots: 1, MaxRound: 64, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}, Mutation: mut}
	for p := 0; p < s.n; p++ {
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

// timeout closes the current round of every slot p has open.
func (s *scen) timeout(p core.ProcessID) {
	for _, sr := range s.cores[p].OpenRounds(nil) {
		s.stepOn(p, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot})
	}
}

// deliver delivers every CURRENTLY queued message, in order (messages a
// delivery emits queue up but are not delivered in this pass). Crashed
// destinations swallow their messages.
func (s *scen) deliver() {
	batch := s.wire
	s.wire = nil
	for _, o := range batch {
		s.stepOn(o.To, live.Event[byte]{Kind: live.EvEnvelope, Env: o.Env})
	}
}

// disseminate hands every replica the contents of every batch minted so
// far, without moving any round: each batch rides a null round message of
// slot 0 — a slot before every log, so nobody hears the message and only
// its rider is kept.
func (s *scen) disseminate() {
	null, err := lastvoting.WireCodec{}.Encode(nil)
	if err != nil {
		panic(fmt.Sprintf("modelcheck: probe codec: %v", err))
	}
	for q := 0; q < s.n; q++ {
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

// checkDrift runs the round-drift schedule against a two-survivor group:
// the invariant engine over its end state, and, without a violation, a
// drift-livelock finding if a survivor has not applied the slot. With
// mutated (live.MutNoJump) the survivors never decide; without, the jump
// rule realigns the pair and both decide and apply.
func checkDrift(mutated bool) probeResult {
	s := newScen(0)
	if mutated {
		s = newScen(live.MutNoJump)
	}
	s.dead = 1 << 2 // p2 has crash-stopped: the one crash of the run

	s.stepOn(0, live.Event[byte]{Kind: live.EvSubmit, Client: 1, Seq: 1, Cmd: 'a'})
	// p1 adopts batch A and starts; everything else in flight — p0's vote
	// included — is lost.
	s.disseminate()
	s.wire = nil
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
	for i := 0; i < 40; i++ {
		s.deliver()
		s.timeout(0)
		s.timeout(1)
	}

	findings := map[string]*ReplicaFinding{}
	isLive := func(p core.ProcessID) bool { return s.dead&(1<<uint(p)) == 0 }
	inFlight := func(bid int64) bool {
		return slices.ContainsFunc(s.wire, func(o live.Outbound) bool { return isLive(o.To) && slices.Contains(carried(o.Env), bid) })
	}
	res := probeResult{Violation: checkReplicaInvariants(s.n, s.cores, isLive, inFlight, 1, findings)}
	res.Findings = sortedFindings(findings)
	for p := core.ProcessID(0); p < 2 && res.Violation == nil; p++ {
		if applied, _ := s.cores[p].LogFingerprint(); applied == 0 {
			res.Findings = append(res.Findings, ReplicaFinding{Kind: "drift-livelock", Count: 1, Message: fmt.Sprintf(
				"survivor %d undecided after 40 lockstep rounds (%d executed) with a live majority", p, s.cores[p].Counters().Rounds)})
			break
		}
	}
	return res
}
