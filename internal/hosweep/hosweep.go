// Package hosweep is the exhaustive lock-step heard-of sweep, the one model
// checker for HO algorithms. Rounds are communication-closed: an
// asynchronous run is indistinguishable from a lock-step one with the same
// heard-of sets, so checking an algorithm means walking heard-of
// assignments round by round. Run explores every global state a
// core.Algorithm reaches from an input vector under every admissible
// assignment, and checks agreement (no two decisions differ), integrity (a
// decision is some process's input) and irrevocability (a decision is
// kept) on each.
//
// T_p^r reads HO(p, r) only, so a round is never the (2^n)^n joint
// assignments: each process's distinct outcomes over its own admissible
// sets are computed once and the successors are their product. States are
// copied through core.Recoverable and deduplicated on core.Persistent's
// canonical bytes; nothing here knows one algorithm from another.
// Frontiers are walked in insertion order and sets in ascending order, so
// the counts and the violation are a function of the Sweep alone.
package hosweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"heardof/internal/core"
)

const (
	maxN      = 8         // every process ranges over 2^n heard-of sets
	maxStates = 2_000_000 // past this the scope is no longer small
)

// Family is one product family of heard-of assignments: it admits or
// refuses ho as HO(p, r) whatever the others hear. A round's assignments
// are the union over the sweep's families of each family's product, so a
// predicate that couples processes is one family per witness.
type Family func(r core.Round, p core.ProcessID, ho core.PIDSet) bool

// NonEmptyKernel returns the n families whose union is exactly the
// assignments with ∩_p HO(p) ≠ ∅, the predicate UniformVoting's safety is
// conditional on: family q lets every process hear any set containing q.
func NonEmptyKernel(n int) []Family {
	fams := make([]Family, n)
	for q := range fams {
		fams[q] = func(_ core.Round, _ core.ProcessID, ho core.PIDSet) bool { return ho.Has(core.ProcessID(q)) }
	}
	return fams
}

// Sweep is one exploration.
type Sweep struct {
	// Alg is the algorithm under test, Inputs its input vector. Instances
	// must implement core.Recoverable and core.Persistent.
	Alg    core.Algorithm
	Inputs []core.Value
	// Start, when non-nil, is the state before round 1 in place of fresh
	// instances: a state an earlier sweep visited.
	Start []core.Instance
	// Rounds bounds the exploration to rounds 1..Rounds; zero explores to
	// the fixpoint, which needs a Period.
	Rounds int
	// Period is the algorithm's round symmetry, T_p^r = T_p^(r+Period): 1
	// for OneThirdRule, 2 for UniformVoting. States a multiple of Period
	// apart are one state, so the reachable set closes. Zero (LastVoting:
	// the coordinator rotates) keeps the states of different rounds apart.
	Period int
	// Families restricts the heard-of assignments; nil admits all.
	Families []Family
	// Restarts lets any process crash after its send and restart from
	// stable storage into the next round: its outcome for the round is its
	// state before it, through AppendState and RestoreState. No Family is
	// asked about it — so a predicate over every HO(p, r), which a process
	// that is down leaves empty, no longer holds of such a run.
	Restarts bool
	// Visit, when non-nil, sees every distinct global state once, on the
	// edge that first reached it: to after round r, from before it (round
	// 0 and nil for the start state). It must not write to either.
	Visit func(r core.Round, from, to []core.Instance)
}

// Result summarizes an exploration.
type Result struct {
	// States counts the distinct global states visited, the start state
	// included; without a Period, once per round a state occurs in.
	States int
	// Violation is the first safety violation met, nil if there is none.
	Violation error
}

// outcome is one of a process's possible states after a round.
type outcome struct {
	inst core.Instance
	enc  []byte // AppendState behind its length
}

// Run explores the sweep's reachable states. The error is a sweep that
// cannot run or outgrew small scope; a finding is Result.Violation.
func (s Sweep) Run() (res Result, err error) {
	n := len(s.Inputs)
	switch {
	case n < 1 || n > maxN:
		return res, fmt.Errorf("hosweep: %d processes, want 1..%d", n, maxN)
	case s.Rounds <= 0 && s.Period <= 0:
		return res, errors.New("hosweep: neither a round bound nor a period: the sweep would not end")
	case s.Start != nil && len(s.Start) != n:
		return res, fmt.Errorf("hosweep: start state of %d instances for %d inputs", len(s.Start), n)
	}
	first := make([][]outcome, n)
	for p := range first {
		inst := s.Alg.NewInstance(core.ProcessID(p), n, s.Inputs[p])
		if s.Start != nil {
			inst = s.Start[p]
		}
		_, rec := inst.(core.Recoverable)
		if _, per := inst.(core.Persistent); !rec || !per {
			return res, fmt.Errorf("hosweep: %T must implement core.Recoverable and core.Persistent", inst)
		}
		first[p] = []outcome{{inst, encode(inst)}}
	}
	families := s.Families
	if families == nil {
		families = []Family{func(core.Round, core.ProcessID, core.PIDSet) bool { return true }}
	}

	var (
		seen           = make(map[string]struct{})
		frontier, next [][]core.Instance
		key            []byte
		pick           = make([]int, n)
	)
	// expand adds the unseen combinations of one outcome per process as
	// round r's states, and reports whether the sweep goes on.
	expand := func(r core.Round, from []core.Instance, outs [][]outcome) bool {
		phase := r
		if s.Period > 0 {
			phase %= core.Round(s.Period)
		}
		clear(pick)
		for more := true; more; more = advance(pick, outs) {
			key = binary.AppendUvarint(key[:0], uint64(phase))
			for p, i := range pick {
				key = append(key, outs[p][i].enc...)
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			if len(seen) >= maxStates {
				err = fmt.Errorf("hosweep: state budget %d exhausted in round %d", maxStates, r)
				return false
			}
			seen[string(key)] = struct{}{}
			to := make([]core.Instance, n)
			for p, i := range pick {
				to[p] = outs[p][i].inst
			}
			next = append(next, to)
			res.States++
			if s.Visit != nil {
				s.Visit(r, from, to)
			}
			if res.Violation = s.agreement(r, to); res.Violation != nil {
				return false
			}
		}
		return true
	}
	if !expand(0, nil, first) {
		return res, err
	}
	sent := make([]core.Message, n)
	for r := core.Round(1); len(next) > 0 && (s.Rounds <= 0 || int(r) <= s.Rounds); r++ {
		frontier, next = next, nil
		for _, g := range frontier {
			for p, inst := range g {
				sent[p] = inst.Send(r)
			}
			for _, fam := range families {
				outs, violation := s.outcomes(g, sent, r, fam)
				if outs == nil {
					continue // the family admits no set for some process
				}
				if res.Violation = violation; violation != nil || !expand(r, g, outs) {
					return res, err
				}
			}
		}
	}
	return res, nil
}

// advance steps pick to the next combination, last process fastest, and
// reports false after the last one.
func advance(pick []int, outs [][]outcome) bool {
	for p := len(pick) - 1; p >= 0; p-- {
		if pick[p]++; pick[p] < len(outs[p]) {
			return true
		}
		pick[p] = 0
	}
	return false
}

// outcomes returns, for every process of global state g, its distinct
// states after round r over the heard-of sets fam admits (and a restart),
// in ascending set order — the one place heard-of assignments are
// enumerated — with the first violation of the per-process properties;
// nil if some process is left without an outcome.
func (s Sweep) outcomes(g []core.Instance, sent []core.Message, r core.Round, fam Family) (outs [][]outcome, violation error) {
	n := len(g)
	outs = make([][]outcome, n)
	msgs := make([]core.IncomingMessage, 0, n)
	for p, before := range g {
		pid := core.ProcessID(p)
		add := func(inst core.Instance) {
			enc := encode(inst)
			for _, o := range outs[p] {
				if bytes.Equal(o.enc, enc) {
					return
				}
			}
			outs[p] = append(outs[p], outcome{inst, enc})
			if violation == nil {
				violation = s.kept(r, pid, before, inst)
			}
		}
		for ho := core.PIDSet(0); ho < 1<<n; ho++ {
			if !fam(r, pid, ho) {
				continue
			}
			msgs = msgs[:0]
			ho.ForEach(func(q core.ProcessID) {
				msgs = append(msgs, core.IncomingMessage{From: q, Payload: sent[q]})
			})
			inst := s.Alg.NewInstance(pid, n, s.Inputs[p])
			inst.(core.Recoverable).Restore(before.(core.Recoverable).Snapshot())
			inst.Transition(r, msgs)
			add(inst)
		}
		if s.Restarts {
			inst := s.Alg.NewInstance(pid, n, s.Inputs[p])
			if err := inst.(core.Persistent).RestoreState(before.(core.Persistent).AppendState(nil)); err == nil {
				add(inst)
			} else if violation == nil {
				violation = fmt.Errorf("restart: inputs %v round %d: %s cannot restore its own state: %w", s.Inputs, r, pid, err)
			}
		}
		if len(outs[p]) == 0 {
			return nil, nil
		}
	}
	return outs, violation
}

// kept checks one process's step: a decision taken before it is kept
// (irrevocability), a decision held after it is an input (integrity).
func (s Sweep) kept(r core.Round, p core.ProcessID, before, after core.Instance) error {
	v, decided := after.Decided()
	if was, had := before.Decided(); had && !(decided && v == was) {
		return fmt.Errorf("irrevocability: inputs %v round %d: %s decided %d, then Decided() = (%d, %v)", s.Inputs, r, p, was, v, decided)
	}
	if !decided || slices.Contains(s.Inputs, v) {
		return nil
	}
	return fmt.Errorf("integrity: inputs %v round %d: %s decided %d, nobody's input", s.Inputs, r, p, v)
}

// agreement checks the one property of the global state.
func (s Sweep) agreement(r core.Round, g []core.Instance) error {
	first := -1
	var want core.Value
	for p, inst := range g {
		if v, ok := inst.Decided(); ok && first < 0 {
			first, want = p, v
		} else if ok && v != want {
			return fmt.Errorf("agreement: inputs %v round %d: p%d decided %d, p%d decided %d", s.Inputs, r, first, want, p, v)
		}
	}
	return nil
}

// encode returns inst's canonical bytes behind their length.
func encode(inst core.Instance) []byte {
	enc := inst.(core.Persistent).AppendState(nil)
	return append(binary.AppendUvarint(nil, uint64(len(enc))), enc...)
}
