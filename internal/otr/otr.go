// Package otr implements Algorithm 1 of Hutle & Schiper (DSN 2007): the
// OneThirdRule consensus algorithm of Charron-Bost and Schiper's Heard-Of
// model paper.
//
// Every round, each process broadcasts its estimate x_p. On receiving
// messages from more than 2n/3 processes, a process adopts the value shared
// by all-but-at-most-⌊n/3⌋ of the received messages if one exists, and the
// smallest received value otherwise; it decides on a value that occurs in
// more than 2n/3 of the received messages.
//
// Paired with the communication predicate P_otr (or its restricted-scope
// variant P_otr^restr) the algorithm solves consensus (Theorems 1 and 2 of
// the paper); its safety properties hold under arbitrary heard-of sets.
package otr

import (
	"encoding/binary"
	"errors"

	"heardof/internal/core"
	"heardof/internal/quorum"
)

// Algorithm is the OneThirdRule algorithm factory.
type Algorithm struct{}

var _ core.Algorithm = Algorithm{}

// Name implements core.Algorithm.
func (Algorithm) Name() string { return "OneThirdRule" }

// NewInstance implements core.Algorithm.
func (Algorithm) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	return &Instance{p: p, n: n, x: initial}
}

// message is the round message ⟨x_p⟩.
type message struct {
	X core.Value
}

// Instance is one process's OneThirdRule state: the estimate x_p and the
// decision status.
type Instance struct {
	p core.ProcessID
	n int

	x        core.Value
	decided  bool
	decision core.Value
}

var (
	_ core.Instance    = (*Instance)(nil)
	_ core.Recoverable = (*Instance)(nil)
	_ core.Persistent  = (*Instance)(nil)
)

// X returns the current estimate x_p (for tests and debugging).
func (i *Instance) X() core.Value { return i.x }

// Send implements S_p^r: broadcast ⟨x_p⟩.
func (i *Instance) Send(core.Round) core.Message { return message{X: i.x} }

// Transition implements T_p^r (lines 6–13 of Algorithm 1).
func (i *Instance) Transition(_ core.Round, msgs []core.IncomingMessage) {
	m := len(msgs)
	if !quorum.ExceedsTwoThirds(m, i.n) {
		return // |HO(p,r)| ≤ 2n/3: no state change this round
	}

	counts := make(map[core.Value]int, m)
	smallest := core.Value(0)
	haveSmallest := false
	for _, im := range msgs {
		mv, ok := im.Payload.(message)
		if !ok {
			continue // foreign payload: treat as transmission fault
		}
		counts[mv.X]++
		if !haveSmallest || mv.X < smallest {
			smallest = mv.X
			haveSmallest = true
		}
	}
	if len(counts) == 0 {
		return
	}

	// Line 8–11: if the values received, except at most ⌊n/3⌋, are equal
	// to some x̄, adopt x̄; otherwise adopt the smallest received value.
	// Such an x̄ is unique because m > 2n/3.
	slack := quorum.ThirdFloor(i.n)
	adopted := false
	for v, c := range counts {
		if c >= m-slack {
			i.x = v
			adopted = true
			break
		}
	}
	if !adopted {
		i.x = smallest
	}

	// Line 12–13: decide x̄ if more than 2n/3 of the received values equal
	// x̄ (threshold relative to n, not to m).
	for v, c := range counts {
		if quorum.ExceedsTwoThirds(c, i.n) {
			if !i.decided {
				i.decided = true
				i.decision = v
			}
			break
		}
	}
}

// Decided implements core.Instance.
func (i *Instance) Decided() (core.Value, bool) { return i.decision, i.decided }

// snapshot is the stable-storage image of an instance.
type snapshot struct {
	x        core.Value
	decided  bool
	decision core.Value
}

// Snapshot implements core.Recoverable.
func (i *Instance) Snapshot() core.Snapshot {
	return snapshot{x: i.x, decided: i.decided, decision: i.decision}
}

// Restore implements core.Recoverable.
func (i *Instance) Restore(s core.Snapshot) {
	sn, ok := s.(snapshot)
	if !ok {
		return
	}
	i.x, i.decided, i.decision = sn.x, sn.decided, sn.decision
}

// AppendState implements core.Persistent.
func (i *Instance) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(i.x))
	if i.decided {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendVarint(dst, int64(i.decision))
}

// RestoreState implements core.Persistent. OTR has no round-local state:
// it is AppendState's exact inverse.
func (i *Instance) RestoreState(b []byte) error {
	x, n1 := binary.Varint(b)
	if n1 <= 0 {
		return errors.New("otr: corrupt state: x")
	}
	b = b[n1:]
	if len(b) == 0 || b[0] > 1 {
		return errors.New("otr: corrupt state: decided flag")
	}
	decision, n2 := binary.Varint(b[1:])
	if n2 <= 0 || len(b) != 1+n2 {
		return errors.New("otr: corrupt state: decision")
	}
	i.x, i.decided, i.decision = core.Value(x), b[0] == 1, core.Value(decision)
	return nil
}
