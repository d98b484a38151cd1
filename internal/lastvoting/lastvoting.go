// Package lastvoting implements the LastVoting algorithm — Paxos
// expressed in the Heard-Of model, as referenced by §5 of the DSN 2007
// paper ("a consensus algorithm à la Paxos in the HO model can be found
// in [6]"). It is a coordinated algorithm with majority quorums,
// tolerating any transmission faults; liveness needs a phase in which the
// coordinator and a majority hear each other.
//
// Phase φ ≥ 2 (coordinator c = (φ−1) mod n) occupies rounds 4φ−4 … 4φ−1:
//
//	estimate: everyone sends ⟨x_p, ts_p⟩; if c hears a majority it
//	          selects the value with the highest timestamp as its vote.
//	vote:     c sends ⟨vote⟩; receivers adopt it and set ts_p := φ.
//	ack:      adopters send ⟨ack⟩; whoever adopted and hears a majority
//	          of acks decides x_p, and c (if it voted) becomes ready.
//	decide:   a ready c sends ⟨decide, vote⟩; receivers decide.
//
// Phase 1 is rounds 1 … 3: vote, ack, decide. Four departures from [6],
// argued in DESIGN.md §9. Coord(1) is born locked to its own proposal,
// (x, ts) = (proposal, 1), and votes it unasked: no earlier phase could have
// locked a value, so an estimate round has nothing to report. Every
// adopter, not only c, decides on a majority of acks: they are broadcast
// anyway, and it is c's own lock argument one round earlier. In phase 1 c
// is counted among those acks whether its ack arrived or not — born
// locked, it is an acceptor of its own vote — so at n ≤ 3 an adopter
// decides on its own ack, one hop after the vote. And c's ack is its vote
// sent again: a process that missed the vote adopts it there, counts
// itself beside c, and decides. The decide round stays for processes that
// missed both. Phase 1's vote round is settled by the vote alone
// (core.Settling): a layer that closes rounds early moves on the moment it
// holds it, Coord(1) at entry. Like [6], all of it assumes a process lives
// each round at most once, across crashes too: whoever restores an
// instance resumes it past the last round it sent in.
package lastvoting

import (
	"encoding/binary"
	"errors"

	"heardof/internal/core"
	"heardof/internal/quorum"
)

// Algorithm is the LastVoting factory.
type Algorithm struct{}

var _ core.Algorithm = Algorithm{}

// Name implements core.Algorithm.
func (Algorithm) Name() string { return "LastVoting" }

// NewInstance implements core.Algorithm.
func (Algorithm) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	i := &Instance{p: p, n: n, x: initial}
	if p == Coord(1, n) {
		i.ts, i.vote, i.commit = 1, initial, true
	}
	return i
}

// Coord returns the coordinator of phase φ.
func Coord(phase core.Round, n int) core.ProcessID {
	return core.ProcessID(int(phase-1) % n)
}

// PhaseOf returns the phase of round r and the position 1..4 within it
// (estimate, vote, ack, decide); round 1 is (1, 2).
func PhaseOf(r core.Round) (phase core.Round, pos int) {
	phase = (r + 4) / 4
	pos = int(r + 1 - 4*(phase-1))
	return phase, pos
}

// Message payloads. A nil payload models "sends nothing relevant" (the HO
// model's null message).
type (
	estimateMsg struct {
		X  core.Value
		TS core.Round
	}
	voteMsg struct {
		V core.Value
	}
	ackMsg    struct{}
	decideMsg struct {
		V core.Value
	}
)

// Instance is one process's LastVoting state.
type Instance struct {
	p core.ProcessID
	n int

	x  core.Value
	ts core.Round // phase of the last adoption

	// Coordinator-only phase state.
	vote    core.Value
	commit  bool
	ready   bool
	ackable bool // this process adopted in the current phase (sends ack)

	decided  bool
	decision core.Value
}

var (
	_ core.Instance    = (*Instance)(nil)
	_ core.Recoverable = (*Instance)(nil)
	_ core.Persistent  = (*Instance)(nil)
	_ core.Settling    = (*Instance)(nil)
)

// X returns the current estimate (for tests).
func (i *Instance) X() core.Value { return i.x }

// Send implements S_p^r.
func (i *Instance) Send(r core.Round) core.Message {
	phase, pos := PhaseOf(r)
	c := Coord(phase, i.n)
	switch pos {
	case 1:
		return estimateMsg{X: i.x, TS: i.ts}
	case 2:
		if i.p == c && i.commit {
			return voteMsg{V: i.vote}
		}
	case 3:
		if phase == 1 && i.p == c && i.commit {
			return voteMsg{V: i.vote} // its ack, naming the vote for whoever missed it
		}
		if i.ackable {
			return ackMsg{}
		}
	case 4:
		if i.p == c && i.ready {
			return decideMsg{V: i.vote}
		}
	}
	return nil
}

// Transition implements T_p^r.
func (i *Instance) Transition(r core.Round, msgs []core.IncomingMessage) {
	phase, pos := PhaseOf(r)
	c := Coord(phase, i.n)
	switch pos {
	case 1:
		if i.p != c {
			return
		}
		i.commit = false
		count := 0
		var best estimateMsg
		haveBest := false
		for _, m := range msgs {
			em, ok := m.Payload.(estimateMsg)
			if !ok {
				continue
			}
			count++
			if !haveBest || em.TS > best.TS {
				best, haveBest = em, true
			}
		}
		if quorum.ExceedsMajority(count, i.n) && haveBest {
			i.vote = best.X
			i.commit = true
		}
	case 2:
		i.ackable = false
		for _, m := range msgs {
			if m.From != c {
				continue
			}
			if vm, ok := m.Payload.(voteMsg); ok {
				i.x = vm.V
				i.ts = phase
				i.ackable = true
			}
		}
	case 3:
		acks, vote, late := i.ackCount(phase, c, msgs)
		if late {
			i.x, i.ts = vote.V, phase
		}
		majority := quorum.ExceedsMajority(acks, i.n)
		// commit: a coordinator restarted since its vote no longer knows it.
		i.ready = majority && i.p == c && i.commit
		if majority && (i.ackable || late) && !i.decided {
			i.decided, i.decision = true, i.x // x_p is the vote, and locked
		}
	case 4:
		for _, m := range msgs {
			if m.From != c {
				continue
			}
			if dm, ok := m.Payload.(decideMsg); ok && !i.decided {
				i.decided = true
				i.decision = dm.V
			}
		}
		// Phase bookkeeping resets.
		i.commit = false
		i.ready = false
		i.ackable = false
	}
}

// Implements core.Settling for the three rounds whose transition a
// larger vector cannot change: phase 1's vote round once msgs holds
// Coord(1)'s vote (the transition reads nothing else, and a vector has one
// message per sender — Coord(1) holds its own at entry); the ack round once
// this process has adopted the phase's vote — in the vote round, or in
// phase 1 from the coordinator's ack — and ackCount reaches a majority
// (more messages are more acks at most, and x_p is fixed: phase 1 has one
// vote); and the decide round once msgs holds the coordinator's decide
// message. Later vote rounds are deliberately absent: their coordinator's
// ack does not name its vote, so a replica that closed the vote round
// early could overtake the vote at a peer, whose jump rule then closes the
// round without it. At n ≤ 3 the phase-1 ack round settles the moment an
// adopter enters it, on its own ack, and the moment one that missed the
// vote hears the coordinator's.
//
//holint:hotpath
func (i *Instance) SettledOn(r core.Round, msgs []core.IncomingMessage) bool {
	phase, pos := PhaseOf(r)
	c := Coord(phase, i.n)
	switch pos {
	case 2:
		if phase != 1 {
			return false
		}
		for _, m := range msgs {
			if _, ok := m.Payload.(voteMsg); ok && m.From == c {
				return true
			}
		}
	case 3:
		acks, _, late := i.ackCount(phase, c, msgs)
		return (i.ackable || late) && quorum.ExceedsMajority(acks, i.n)
	case 4:
		for _, m := range msgs {
			if _, ok := m.Payload.(decideMsg); ok && m.From == c {
				return true
			}
		}
	}
	return false
}

// ackCount counts the acks of phase φ's ack round in msgs. In phase 1 the
// coordinator c is counted whether its ack arrived or not — it was born
// locked to its vote, durably before the vote left — and its ack is that
// vote again (c sends no ackMsg in phase 1): late reports that msgs holds
// it and this process missed the vote round. Such a process adopts the
// vote from it, and counts itself too: it sent no ack, but it holds the
// vote at ts 1 in the very state that decides on the count.
//
//holint:hotpath
func (i *Instance) ackCount(phase core.Round, c core.ProcessID, msgs []core.IncomingMessage) (acks int, vote voteMsg, late bool) {
	for _, m := range msgs {
		switch pl := m.Payload.(type) {
		case ackMsg:
			acks++
		case voteMsg:
			if phase == 1 && m.From == c && !i.ackable {
				vote, late = pl, true
			}
		}
	}
	if phase == 1 {
		acks++
		if late && i.p != c {
			acks++
		}
	}
	return acks, vote, late
}

// Decided implements core.Instance.
func (i *Instance) Decided() (core.Value, bool) { return i.decision, i.decided }

// snapshot is the stable-storage image.
type snapshot struct {
	x        core.Value
	ts       core.Round
	vote     core.Value
	commit   bool
	ready    bool
	ackable  bool
	decided  bool
	decision core.Value
}

// Snapshot implements core.Recoverable.
func (i *Instance) Snapshot() core.Snapshot {
	return snapshot{
		x: i.x, ts: i.ts, vote: i.vote, commit: i.commit,
		ready: i.ready, ackable: i.ackable, decided: i.decided, decision: i.decision,
	}
}

// Restore implements core.Recoverable.
func (i *Instance) Restore(s core.Snapshot) {
	sn, ok := s.(snapshot)
	if !ok {
		return
	}
	i.x, i.ts, i.vote, i.commit = sn.x, sn.ts, sn.vote, sn.commit
	i.ready, i.ackable, i.decided, i.decision = sn.ready, sn.ackable, sn.decided, sn.decision
}

// AppendState implements core.Persistent: the whole state, volatile
// fields included — the live layer's WAL vote record, the crash image
// RestoreState reads, and the model checkers' fingerprint.
func (i *Instance) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(i.x))
	dst = binary.AppendVarint(dst, int64(i.ts))
	dst = binary.AppendVarint(dst, int64(i.vote))
	var flags byte
	if i.commit {
		flags |= 1
	}
	if i.ready {
		flags |= 2
	}
	if i.ackable {
		flags |= 4
	}
	if i.decided {
		flags |= 8
	}
	dst = append(dst, flags)
	return binary.AppendVarint(dst, int64(i.decision))
}

// RestoreState implements core.Persistent, keeping exactly what the
// paper's crash-recovery variant keeps in stable storage: the locked vote
// (x_p, ts_p) and the decision. The phase bookkeeping (commit, vote, ready,
// ackable) is volatile ROUND state and is deliberately reset — a
// recovered coordinator that rejoined mid-phase with a stale commit
// would replay a vote formed from an older phase's estimates, and a
// stale ackable would acknowledge an adoption that never happened at
// the current phase; either breaks the majority-lock argument. That
// includes Coord(1)'s birth commit: it may have voted before the crash.
// Its birth LOCK is stable and stays, also in a record of a build that
// bore Coord(1) at ts 0: there ts 0 means x is still the proposal it was
// born voting for, and adopters count it as locked.
func (i *Instance) RestoreState(b []byte) error {
	x, n1 := binary.Varint(b)
	if n1 <= 0 {
		return errors.New("lastvoting: corrupt state: x")
	}
	b = b[n1:]
	ts, n2 := binary.Varint(b)
	if n2 <= 0 {
		return errors.New("lastvoting: corrupt state: ts")
	}
	b = b[n2:]
	_, n3 := binary.Varint(b) // the vote: decoded to validate, then dropped
	if n3 <= 0 {
		return errors.New("lastvoting: corrupt state: vote")
	}
	b = b[n3:]
	if len(b) == 0 {
		return errors.New("lastvoting: corrupt state: flags")
	}
	flags := b[0]
	decision, n4 := binary.Varint(b[1:])
	if n4 <= 0 || flags > 15 || len(b) != 1+n4 {
		return errors.New("lastvoting: corrupt state: decision")
	}
	i.x, i.ts = core.Value(x), core.Round(ts)
	if ts == 0 && i.p == Coord(1, i.n) {
		i.ts = 1
	}
	i.vote, i.commit, i.ready, i.ackable = 0, false, false, false
	i.decided = flags&8 != 0
	i.decision = core.Value(decision)
	return nil
}
