package lastvoting

import (
	"fmt"
	"testing"

	"heardof/internal/core"
	"heardof/internal/quorum"
)

// The bounded exhaustive heard-of sweep: three processes, every binary
// input vector, and in every round EVERY heard-of assignment — each
// process hears any of the 8 subsets of Π, self included or not — for
// sweepRounds rounds, with the global state (the three instances; the
// round is the frontier's) deduplicated per round. And in every round any
// process may CRASH after sending and restart from stable storage — any
// number of them, any number of times — resuming in the next round, as
// the live core resumes it (past the last round it sent in): its
// outcome for the round is its state before it, through AppendState and
// RestoreState. It covers what the live model checker cannot reach:
// phases past the first, coordinators that never hear themselves, a
// decide round arriving after somebody already decided on acks, a
// majority restarting in the middle of a phase.

// sweepRounds is four whole phases, 3 + 4 + 4 + 4: the coordinator role
// goes once around and comes back to p0, the process born committed.
const sweepRounds = 15

type sweepState [3]Instance

// transitionFn is T_p^r, or a variant of it under test.
type transitionFn func(i *Instance, r core.Round, msgs []core.IncomingMessage)

// sweep explores every run and returns the first violation of agreement,
// integrity or validity (nil if there is none), the number of distinct
// global states visited, and whether some run has all three decide in a
// phase after the first (the vacuity guard for the later phases).
func sweep(step transitionFn) (violation error, states int, lateDecision bool) {
	for in := 0; in < 8; in++ {
		var init sweepState
		for p := range init {
			inst := Algorithm{}.NewInstance(core.ProcessID(p), 3, core.Value(in>>p&1)).(*Instance)
			init[p] = *inst
		}
		valid := func(v core.Value) bool {
			return v == init[0].x || v == init[1].x || v == init[2].x
		}
		frontier := map[sweepState]struct{}{init: {}}
		for r := core.Round(1); r <= sweepRounds; r++ {
			next := make(map[sweepState]struct{}, len(frontier))
			for g := range frontier {
				var sent [3]core.Message
				for p := range g {
					sent[p] = g[p].Send(r)
				}
				// T_p^r reads HO(p, r) only: the outcomes of one process
				// under its 8 heard-of sets, deduplicated, then the product.
				var outs [3][]Instance
				for p := range g {
					for ho := 0; ho < 8; ho++ {
						var msgs []core.IncomingMessage
						for q := range sent {
							if ho>>q&1 == 1 {
								msgs = append(msgs, core.IncomingMessage{From: core.ProcessID(q), Payload: sent[q]})
							}
						}
						inst := g[p]
						step(&inst, r, msgs)
						if g[p].decided && (!inst.decided || inst.decision != g[p].decision) {
							return fmt.Errorf("integrity: inputs %03b round %d: p%d revoked decision %d", in, r, p, g[p].decision), states, lateDecision
						}
						if inst.decided && !valid(inst.decision) {
							return fmt.Errorf("validity: inputs %03b round %d: p%d decided %d, nobody's input", in, r, p, inst.decision), states, lateDecision
						}
						dup := false
						for _, o := range outs[p] {
							dup = dup || o == inst
						}
						if !dup {
							outs[p] = append(outs[p], inst)
						}
					}
					outs[p] = append(outs[p], restarted(g[p]))
				}
				for _, a := range outs[0] {
					for _, b := range outs[1] {
						for _, c := range outs[2] {
							ng := sweepState{a, b, c}
							if _, seen := next[ng]; seen {
								continue
							}
							next[ng] = struct{}{}
							all := true
							for p := range ng {
								all = all && ng[p].decided
								for q := range ng {
									if ng[p].decided && ng[q].decided && ng[p].decision != ng[q].decision {
										return fmt.Errorf("agreement: inputs %03b round %d: p%d decided %d, p%d decided %d",
											in, r, p, ng[p].decision, q, ng[q].decision), states, lateDecision
									}
								}
							}
							if all && r > 3 && !(g[0].decided || g[1].decided || g[2].decided) {
								lateDecision = true
							}
						}
					}
				}
			}
			states += len(next)
			frontier = next
		}
	}
	return nil, states, lateDecision
}

// restarted is i after a crash: what RestoreState makes of its saved state.
func restarted(i Instance) Instance {
	rec := Instance{p: i.p, n: i.n}
	if err := rec.RestoreState(i.AppendState(nil)); err != nil {
		panic(err)
	}
	return rec
}

func TestExhaustiveHeardOfSweep(t *testing.T) {
	violation, states, late := sweep((*Instance).Transition)
	if violation != nil {
		t.Fatal(violation)
	}
	if !late {
		t.Error("vacuous sweep: no run decides for the first time after phase 1")
	}
	t.Logf("n=3, 8 input vectors, %d rounds, every heard-of assignment: %d global states, no violation", sweepRounds, states)
}

// TestSweepRejectsTemptingVariants shows the sweep has teeth where the
// two departures from the four-round algorithm stop, and where a restart
// bites: each condition dropped is an agreement violation it finds.
func TestSweepRejectsTemptingVariants(t *testing.T) {
	variants := []struct {
		name string
		step transitionFn
	}{
		// "A majority acked, so whatever I hold is decided": the acks lock
		// the coordinator's vote, and a process that missed the vote round
		// holds something else.
		{"decide on acks without having adopted", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			if _, pos := PhaseOf(r); pos == 3 {
				i.ackable = true
			}
			i.Transition(r, msgs)
		}},
		// "If Coord(1) may vote unasked, so may Coord(φ)": only phase 1 has
		// no earlier phase whose lock the estimates would have reported.
		{"coordinator votes unasked in a phase after the first", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			i.Transition(r, msgs)
			if phase, pos := PhaseOf(r); pos == 1 && i.p == Coord(phase, i.n) {
				i.vote, i.commit = i.x, true
			}
		}},
		// "A majority acked my phase, so I announce my vote": a coordinator
		// restarted since it voted no longer knows what it voted.
		{"restarted coordinator announces a decision on the acks alone", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			i.Transition(r, msgs)
			if phase, pos := PhaseOf(r); pos == 3 && i.p == Coord(phase, i.n) {
				acks := 0
				for _, m := range msgs {
					if _, ok := m.Payload.(ackMsg); ok {
						acks++
					}
				}
				i.ready = quorum.ExceedsMajority(acks, i.n)
			}
		}},
	}
	for _, v := range variants {
		violation, states, _ := sweep(v.step)
		if violation == nil {
			t.Errorf("%s: survived the sweep (%d states)", v.name, states)
			continue
		}
		t.Logf("%s: %v", v.name, violation)
	}
}
