// Package uv implements UniformVoting, the two-rounds-per-phase consensus
// algorithm of Charron-Bost & Schiper's Heard-Of model paper [6], which
// the DSN 2007 paper cites as the source of the HO framework.
//
// UniformVoting pairs with a predicate requiring only non-empty kernels
// (every round some process is heard by everybody) plus one uniform round
// for termination — a strictly different trade-off from OneThirdRule's
// 2n/3 quorums, which makes it a useful second client of the predicate
// implementation layer.
//
// Phase φ occupies rounds 2φ−1 and 2φ:
//
//	round 2φ−1: broadcast x_p; adopt the smallest value received; if all
//	            received values were equal, vote for that value.
//	round 2φ:   broadcast the vote (or ⊥); if some non-⊥ vote is received
//	            adopt it; if ALL received votes equal v ≠ ⊥, decide v.
package uv

import (
	"encoding/binary"
	"errors"

	"heardof/internal/core"
)

// Algorithm is the UniformVoting factory.
type Algorithm struct{}

var _ core.Algorithm = Algorithm{}

// Name implements core.Algorithm.
func (Algorithm) Name() string { return "UniformVoting" }

// NewInstance implements core.Algorithm.
func (Algorithm) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	return &Instance{p: p, n: n, x: initial}
}

// proposal is the first-round message ⟨x_p⟩.
type proposal struct {
	X core.Value
}

// ballot is the second-round message ⟨vote_p⟩; Valid is false for ⊥.
type ballot struct {
	Vote  core.Value
	Valid bool
}

// Instance is one process's UniformVoting state.
type Instance struct {
	p core.ProcessID
	n int

	x        core.Value
	vote     core.Value
	hasVote  bool
	decided  bool
	decision core.Value
}

var (
	_ core.Instance    = (*Instance)(nil)
	_ core.Recoverable = (*Instance)(nil)
	_ core.Persistent  = (*Instance)(nil)
)

// X returns the current estimate (for tests).
func (i *Instance) X() core.Value { return i.x }

// Send implements S_p^r.
func (i *Instance) Send(r core.Round) core.Message {
	if r%2 == 1 {
		return proposal{X: i.x}
	}
	return ballot{Vote: i.vote, Valid: i.hasVote}
}

// Transition implements T_p^r.
func (i *Instance) Transition(r core.Round, msgs []core.IncomingMessage) {
	if r%2 == 1 {
		i.firstRound(msgs)
	} else {
		i.secondRound(msgs)
	}
}

func (i *Instance) firstRound(msgs []core.IncomingMessage) {
	i.hasVote = false
	var min core.Value
	have := false
	uniform := true
	for _, m := range msgs {
		pm, ok := m.Payload.(proposal)
		if !ok {
			continue
		}
		if !have {
			min, have = pm.X, true
		} else {
			if pm.X != min {
				uniform = false
			}
			if pm.X < min {
				min = pm.X
			}
		}
	}
	if !have {
		return // empty heard-of set: keep state
	}
	i.x = min
	if uniform {
		i.vote = min
		i.hasVote = true
	}
}

func (i *Instance) secondRound(msgs []core.IncomingMessage) {
	sawVote := false
	var v core.Value
	allEqual := true
	received := 0
	for _, m := range msgs {
		bm, ok := m.Payload.(ballot)
		if !ok {
			continue
		}
		received++
		if !bm.Valid {
			allEqual = false
			continue
		}
		if !sawVote {
			v, sawVote = bm.Vote, true
		} else if bm.Vote != v {
			// Two different non-⊥ votes cannot occur (votes come from
			// uniform first rounds), but stay defensive.
			allEqual = false
		}
	}
	if sawVote {
		i.x = v
		if allEqual && received > 0 && !i.decided {
			i.decided = true
			i.decision = v
		}
	}
	i.hasVote = false
}

// Decided implements core.Instance.
func (i *Instance) Decided() (core.Value, bool) { return i.decision, i.decided }

// snapshot is the stable-storage image.
type snapshot struct {
	x        core.Value
	vote     core.Value
	hasVote  bool
	decided  bool
	decision core.Value
}

// Snapshot implements core.Recoverable.
func (i *Instance) Snapshot() core.Snapshot {
	return snapshot{x: i.x, vote: i.vote, hasVote: i.hasVote, decided: i.decided, decision: i.decision}
}

// Restore implements core.Recoverable.
func (i *Instance) Restore(s core.Snapshot) {
	sn, ok := s.(snapshot)
	if !ok {
		return
	}
	i.x, i.vote, i.hasVote, i.decided, i.decision = sn.x, sn.vote, sn.hasVote, sn.decided, sn.decision
}

// AppendState implements core.Persistent: x, a flags byte (1 = has a
// vote, 2 = decided), vote, decision. A ⊥ vote is encoded as 0 whatever
// the vote field still holds from an earlier phase, so instances that
// behave alike encode alike.
func (i *Instance) AppendState(dst []byte) []byte {
	var flags byte
	var vote core.Value
	if i.hasVote {
		flags, vote = 1, i.vote
	}
	if i.decided {
		flags |= 2
	}
	dst = append(binary.AppendVarint(dst, int64(i.x)), flags)
	return binary.AppendVarint(binary.AppendVarint(dst, int64(vote)), int64(i.decision))
}

// RestoreState implements core.Persistent. It is AppendState's exact
// inverse: a vote saved after round 2φ−1 is the ballot round 2φ sends.
func (i *Instance) RestoreState(b []byte) error {
	x, n1 := binary.Varint(b)
	if n1 <= 0 || len(b) == n1 || b[n1] > 3 {
		return errors.New("uv: corrupt state: x or flags")
	}
	flags, b := b[n1], b[n1+1:]
	vote, n2 := binary.Varint(b)
	if n2 <= 0 || (flags&1 == 0 && vote != 0) {
		return errors.New("uv: corrupt state: vote")
	}
	decision, n3 := binary.Varint(b[n2:])
	if n3 <= 0 || len(b) != n2+n3 {
		return errors.New("uv: corrupt state: decision")
	}
	i.x, i.vote, i.hasVote = core.Value(x), core.Value(vote), flags&1 != 0
	i.decided, i.decision = flags&2 != 0, core.Value(decision)
	return nil
}
