// The round driver: pacing of one core.Instance through
// communication-closed rounds. This is the live counterpart of
// core.Runner.StepRound — same contract (rounds strictly increasing,
// every round at most once — across a crash too: recovery resumes a slot
// past the last round it sent in, persist.go — inbox slice call-scoped),
// different clock:
// instead of an HOProvider choosing heard-of sets, HO(p, r) is whatever
// arrived before the round closed.
//
// A round closes when the first of these FOUR happens:
//
//   - all n round-r messages arrived (the good-period fast path: in a
//     synchronous spell every round closes at network speed, not at the
//     timeout — the live realization of the paper's good periods);
//   - the messages heard so far settle the round (core.Settling): T_p^r
//     leaves the same state on them and on every larger round-r vector,
//     so nothing still in flight can matter. Under LastVoting that is
//     phase 1's vote round once the vote is heard (Coord(1) at entry), the
//     ack round at a process that adopted the vote, from a majority of acks
//     on, and the decide round from the coordinator's message on: a slot
//     commits at the pace of the vote and of the fastest quorum, and a
//     silent replica costs it no timeout. At n = 3 the coordinator's vote
//     counts as its ack, so an adopter's ack round closes as it is
//     entered: a non-coordinator decides one hop after the vote, the
//     coordinator on the first ack. Deciders fall silent, so this rule
//     makes nobody jump — but the coordinator's vote and ack leave back to
//     back, and at a slow replica the ack can overtake the vote, whose
//     round the jump rule then closes without it: the ack names the vote
//     again, so that replica adopts it there and decides. Both carry the
//     vote's batch (appendRound): adopting it is holding its contents;
//   - any peer was observed already past round r (it closed r without
//     us; a round-r message can no longer reach it, so the driver
//     transitions immediately and fast-forwards to the highest round
//     seen, consuming buffered messages on the way). This jump rule is
//     what keeps processes ROUND-ALIGNED: without it, two survivors of a
//     larger group can drift a constant number of rounds apart and stay
//     there forever — the leader drops the laggard's stale rounds while
//     both advance at one timeout per round — and no phase ever
//     completes. Jumping re-aligns a laggard in one hop and only ever
//     shrinks heard-of sets, which the algorithm layer absorbs;
//   - the per-round timeout fires (the bad-period slow path).
//
// Cutting a round short only shrinks HO(p, r), which the algorithm layer
// already tolerates by construction — that is the entire point of the
// abstraction. It is also why safety does not depend on what a Settling
// instance answers: like a timeout that is too short, a wrong answer can
// only cost liveness (its contract has its own exhaustive check,
// internal/lastvoting/sweep_test.go).
//
// The driver is a pure state machine (slotRun): it advances on delivered
// messages and timeout EVENTS, never on a clock of its own, so the same
// code runs under the replica's goroutine shell (which turns timer fires
// into events) and under the exhaustive model checker (which enumerates
// event interleavings). Time lives in the shell; the protocol lives here.

package live

import (
	"heardof/internal/core"
)

// slotRun is the round-driver state of one consensus slot: the instance,
// the current round's partial heard-of set, buffered future-round
// messages, and the highest peer round observed (the jump target). A
// replica runs up to `window` of them side by side, and as many again that
// it joined (replicacore.go):
// rounds are communication-closed per INSTANCE, so nothing orders the
// rounds of different slots, and each run keeps its own round position,
// heard set and deadline. prop is the batch id this replica proposed for
// the slot (0 = the no-op) — the instance's own estimate moves on, but
// which commands our open proposals carry is what decides whether the
// next slot is worth opening. settling is the instance again if it can
// say when the heard set already settles the round (nil otherwise), and
// msgs the one backing array every inbox of the run is assembled in.
type slotRun struct {
	slot     uint64
	prop     int64
	inst     core.Instance
	settling core.Settling
	r        core.Round
	heard    map[core.ProcessID]core.Message
	future   roundBuffer
	target   core.Round
	msgs     []core.IncomingMessage
}

// roundBuffer keeps a run's decoded messages of rounds not entered yet, the
// first per (round, sender) — the paper's msgsRcv, which never discards a
// message of a round r_p has not reached.
type roundBuffer map[core.Round]map[core.ProcessID]core.Message

// add buffers a message unless one of its round and sender is buffered.
func (b roundBuffer) add(n int, from core.ProcessID, round core.Round, payload core.Message) {
	fr := b[round]
	if fr == nil {
		fr = make(map[core.ProcessID]core.Message, n)
		b[round] = fr
	}
	if _, dup := fr[from]; !dup {
		fr[from] = payload
	}
}

// newSlotRun opens a slot's one instance, of a group of n, at round 0; the
// caller advances into round 1 with enter (recovery first moves r to the
// last round the slot sent in).
func newSlotRun(n int, slot uint64, inst core.Instance, prop int64) *slotRun {
	settling, _ := inst.(core.Settling)
	return &slotRun{
		slot:     slot,
		prop:     prop,
		inst:     inst,
		settling: settling,
		future:   make(roundBuffer),
		msgs:     make([]core.IncomingMessage, 0, n),
	}
}

// deliver records one decoded round message. It reports whether the
// current round's collection window is now closed (see closed).
func (s *slotRun) deliver(n int, from core.ProcessID, round core.Round, payload core.Message, noJump bool) (closed bool) {
	if round > s.target {
		s.target = round
	}
	switch {
	case round < s.r:
		// A stale round: its HO membership window has closed.
	case round == s.r:
		if _, dup := s.heard[from]; !dup {
			s.heard[from] = payload
		}
	default:
		s.future.add(n, from, round, payload)
	}
	return s.closed(n, noJump)
}

// closed reports whether the current round's collection window is over:
// every process heard, or (jump rule, unless mutated out) a peer observed
// past this round, or the heard set already settles the round. It runs after every
// delivery and after every enter, so it must not allocate.
//
//holint:hotpath
func (s *slotRun) closed(n int, noJump bool) bool {
	if len(s.heard) >= n || (!noJump && s.target > s.r) {
		return true
	}
	return s.settling != nil && s.settling.SettledOn(s.r, s.inbox(n))
}

// inbox assembles the current round's messages in process order:
// deterministic given the heard set, mirroring the simulator's
// presentation. The slice is the run's scratch, valid until the next call
// — the lifetime core.Instance gives a Transition argument anyway.
//
//holint:hotpath
func (s *slotRun) inbox(n int) []core.IncomingMessage {
	s.msgs = s.msgs[:0]
	for q := 0; q < n; q++ {
		if pl, ok := s.heard[core.ProcessID(q)]; ok {
			s.msgs = append(s.msgs, core.IncomingMessage{From: core.ProcessID(q), Payload: pl})
		}
	}
	return s.msgs
}

// enter moves to round r: adopt its buffered future messages as the heard
// set and self-deliver payload (self-delivery never crosses the network).
func (s *slotRun) enter(n int, r core.Round, self core.ProcessID, payload core.Message) {
	s.r = r
	s.heard = s.future[r]
	delete(s.future, r)
	if s.heard == nil {
		s.heard = make(map[core.ProcessID]core.Message, n)
	}
	s.heard[self] = payload
}
