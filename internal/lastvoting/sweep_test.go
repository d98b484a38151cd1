package lastvoting

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"heardof/internal/core"
	"heardof/internal/hosweep"
	"heardof/internal/quorum"
)

// The bounded exhaustive heard-of sweep (internal/hosweep) at n = 3: every
// binary input vector, in every round EVERY heard-of assignment, self
// included or not, and any process crashing after its send and restarting
// into the next round, as the live core resumes it. It covers what the live
// model checker cannot reach: phases past the first, coordinators that
// never hear themselves, a decide round arriving after somebody already
// decided on acks, a majority restarting mid-phase.

// sweepRounds is four whole phases, 3 + 4 + 4 + 4: the coordinator role
// goes once around and comes back to p0, the process born committed.
const sweepRounds = 15

func sweep(t *testing.T, s hosweep.Sweep) hosweep.Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wrapped is an Instance with T_p^r replaced by step (a variant under
// test), or remembering having been restarted: the mark is part of its
// state, so the sweep keeps runs that restarted a process apart.
type wrapped struct {
	Instance
	step      variant
	restarted bool
}

// variant is the core.Algorithm of Instances with T_p^r replaced by it.
type variant func(i *Instance, r core.Round, msgs []core.IncomingMessage)

func (variant) Name() string { return "LastVoting variant" }

func (v variant) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	return &wrapped{Instance: *Algorithm{}.NewInstance(p, n, initial).(*Instance), step: v}
}

func (i *wrapped) Transition(r core.Round, msgs []core.IncomingMessage) { i.step(&i.Instance, r, msgs) }
func (i *wrapped) Snapshot() core.Snapshot                              { return *i }
func (i *wrapped) Restore(s core.Snapshot)                              { *i = s.(wrapped) }

func (i *wrapped) AppendState(dst []byte) []byte {
	if i.restarted {
		return append(i.Instance.AppendState(dst), 1)
	}
	return append(i.Instance.AppendState(dst), 0)
}

func (i *wrapped) RestoreState(b []byte) error {
	i.restarted = true
	return i.Instance.RestoreState(b[:len(b)-1])
}

func TestExhaustiveHeardOfSweep(t *testing.T) {
	for _, tc := range []struct {
		restarts bool
		states   int
	}{{true, 251_336}, {false, 87_432}} {
		// The vacuity guard for the later phases: some run has all three
		// decide in one round after phase 1, nobody having decided before.
		states, late := 0, false
		// SettledOn is held to core.Settling's contract from every state of
		// the larger sweep (it contains the other's): that one also has the
		// processes that resumed mid-phase, having adopted nothing.
		contract := &settled{alg: Algorithm{}}
		for in := core.Value(0); in < 8; in++ {
			contract.inputs = []core.Value{in & 1, in >> 1 & 1, in >> 2}
			res := sweep(t, hosweep.Sweep{Alg: Algorithm{}, Inputs: contract.inputs,
				Rounds: sweepRounds, Restarts: tc.restarts, Visit: func(r core.Round, from, to []core.Instance) {
					late = late || (r > 3 && decidedCount(from) == 0 && decidedCount(to) == 3)
					if tc.restarts {
						contract.visit(r, from, to)
					}
				}})
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			states += res.States - 1 // past the start state
		}
		if states != tc.states || !late {
			t.Errorf("restarts %v: %d global states, want %d; some run first decides after phase 1: %v", tc.restarts, states, tc.states, late)
		}
		// Its own vacuity guard: the vote, ack and decide rounds all answered
		// true on less than everybody, the estimate round never.
		if e := contract.early; tc.restarts && (contract.violation != nil || e[1] != 0 || e[2] == 0 || e[3] == 0 || e[4] == 0) {
			t.Errorf("SettledOn: violation %v; true on a partial vector, by position in the phase: %v, want the vote, ack and decide rounds only",
				contract.violation, e[1:])
		}
	}

	// The vacuity guard for the crash dimension, through phase 2 with the
	// restarts marked: in some run a process restarts and later decides.
	decidedAfterRestart := false
	res := sweep(t, hosweep.Sweep{Alg: variant((*Instance).Transition), Inputs: []core.Value{1, 0, 0},
		Rounds: 7, Restarts: true, Visit: func(_ core.Round, from, to []core.Instance) {
			for p := range from {
				was, is := from[p].(*wrapped), to[p].(*wrapped)
				decidedAfterRestart = decidedAfterRestart || (was.restarted && !was.decided && is.decided)
			}
		}})
	if res.Violation != nil || !decidedAfterRestart {
		t.Errorf("restarts marked: violation %v, some restarted process later decides: %v", res.Violation, decidedAfterRestart)
	}
}

// TestExhaustiveHeardOfSweepFourProcesses is the scope where Coord(1)
// counted is not yet a majority with one ack: at n = 4 an adopter needs two
// acks beside it. Phases 1 and 2, restarts, every input vector, SettledOn
// held to its contract throughout.
func TestExhaustiveHeardOfSweepFourProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 4 sweep: seconds")
	}
	states, phase1 := 0, false
	contract := &settled{alg: Algorithm{}}
	for in := core.Value(0); in < 16; in++ {
		contract.inputs = []core.Value{in & 1, in >> 1 & 1, in >> 2 & 1, in >> 3}
		res := sweep(t, hosweep.Sweep{Alg: Algorithm{}, Inputs: contract.inputs, Rounds: 7, Restarts: true,
			Visit: func(r core.Round, from, to []core.Instance) {
				phase1 = phase1 || (r == 2 && decidedCount(to) == 4)
				contract.visit(r, from, to)
			}})
		if res.Violation != nil {
			t.Fatal(res.Violation)
		}
		states += res.States - 1
	}
	if states != 161_068 || !phase1 || contract.violation != nil {
		t.Errorf("%d global states, want 161068; some run has all four decide in phase 1's ack round: %v; SettledOn: %v",
			states, phase1, contract.violation)
	}
}

func decidedCount(g []core.Instance) (k int) {
	for _, inst := range g {
		if _, ok := inst.Decided(); ok {
			k++
		}
	}
	return k
}

// TestSweepRejectsTemptingVariants shows the sweep has teeth where the
// two departures from the four-round algorithm stop, and where a restart
// bites: each condition dropped is an agreement violation it finds — the
// same one on every run, the sweep walks in a fixed order.
func TestSweepRejectsTemptingVariants(t *testing.T) {
	variants := []struct {
		name string
		step variant
		want string
	}{
		// "A majority acked, so whatever I hold is decided": the acks lock
		// the coordinator's vote, and a process that missed the vote round
		// holds something else.
		{"decide on acks without having adopted", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			if _, pos := PhaseOf(r); pos == 3 {
				i.ackable = true
			}
			i.Transition(r, msgs)
		}, "agreement: inputs [1 0 0] round 2: p1 decided 0, p2 decided 1"},
		// "If Coord(1) may vote unasked, so may Coord(φ)": only phase 1 has
		// no earlier phase whose lock the estimates would have reported.
		{"coordinator votes unasked in a phase after the first", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			i.Transition(r, msgs)
			if phase, pos := PhaseOf(r); pos == 1 && i.p == Coord(phase, i.n) {
				i.vote, i.commit = i.x, true
			}
		}, "agreement: inputs [1 0 0] round 6: p1 decided 0, p2 decided 1"},
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
		}, "agreement: inputs [1 0 0] round 3: p1 decided 0, p2 decided 1"},
		// "Coord(1)'s vote is its ack, so it need not be born locked": then
		// its estimate in phase 2 reports ts 0, and a phase-2 coordinator that
		// hears it beside another ts-0 estimate may pick the other one. Ties
		// broken toward the lowest index mask this at n = 3 — the tie always
		// includes p0 = Coord(1), still holding its vote — so the twin breaks
		// them toward the highest.
		{"Coord(1) counted without its birth lock", func(i *Instance, r core.Round, msgs []core.IncomingMessage) {
			if r == 1 && i.p == Coord(1, i.n) {
				i.ts = 0
			}
			if _, pos := PhaseOf(r); pos == 1 {
				msgs = slices.Clone(msgs)
				slices.Reverse(msgs)
			}
			i.Transition(r, msgs)
		}, "agreement: inputs [1 0 0] round 6: p1 decided 0, p2 decided 1"},
	}
	for _, v := range variants {
		res := sweep(t, hosweep.Sweep{Alg: v.step, Inputs: []core.Value{1, 0, 0}, Rounds: sweepRounds, Restarts: true})
		if fmt.Sprint(res.Violation) != v.want {
			t.Errorf("%s:\n got %v\nwant %s", v.name, res.Violation, v.want)
		}
	}
}

// settled checks core.Settling's contract along a sweep: visit is a
// hosweep Visit, and holds the contract for the round after every state it
// sees. Whatever process and heard-of set the answer is true for, T_p^r
// leaves the same state (AppendState) on that set and on every superset of
// it, and asking changed nothing.
type settled struct {
	alg    core.Algorithm
	inputs []core.Value
	// early counts the true answers on less than everybody by position in
	// the phase: the ones the live driver closes a round on before its
	// all-heard rule would.
	early     [5]int
	violation error // the first one met

	sent                 []core.Message
	msgs                 []core.IncomingMessage
	before, after, first []byte
}

func (d *settled) visit(r core.Round, _, g []core.Instance) {
	if r++; d.violation != nil {
		return
	}
	n := len(g)
	d.sent = d.sent[:0]
	for _, inst := range g {
		d.sent = append(d.sent, inst.Send(r))
	}
	vector := func(ho core.PIDSet) []core.IncomingMessage {
		d.msgs = d.msgs[:0]
		ho.ForEach(func(q core.ProcessID) { d.msgs = append(d.msgs, core.IncomingMessage{From: q, Payload: d.sent[q]}) })
		return d.msgs
	}
	_, pos := PhaseOf(r)
	for p, inst := range g {
		d.before = inst.(core.Persistent).AppendState(d.before[:0])
		for ho := core.PIDSet(0); ho < 1<<n; ho++ {
			if !inst.(core.Settling).SettledOn(r, vector(ho)) {
				continue
			}
			if ho != core.FullSet(n) {
				d.early[pos]++
			}
			for sup := ho; sup < 1<<n; sup++ {
				if !sup.Contains(ho) {
					continue
				}
				after := d.alg.NewInstance(core.ProcessID(p), n, d.inputs[p])
				after.(core.Recoverable).Restore(inst.(core.Recoverable).Snapshot())
				after.Transition(r, vector(sup))
				d.after = after.(core.Persistent).AppendState(d.after[:0])
				if sup == ho {
					d.first = append(d.first[:0], d.after...)
				} else if !bytes.Equal(d.first, d.after) {
					d.violation = fmt.Errorf("settled: inputs %v round %d: p%d says %v settles the round, and %v leaves another state", d.inputs, r, p, ho, sup)
					return
				}
			}
		}
		if d.after = inst.(core.Persistent).AppendState(d.after[:0]); !bytes.Equal(d.before, d.after) {
			d.violation = fmt.Errorf("settled: inputs %v round %d: asking p%d changed its state", d.inputs, r, p)
			return
		}
	}
}

// hasty is an Instance whose SettledOn is replaced by settles.
type hasty struct {
	wrapped
	settles hastyAlg
}

func (i *hasty) SettledOn(r core.Round, msgs []core.IncomingMessage) bool {
	return i.settles(&i.Instance, r, msgs)
}

// hastyAlg is the core.Algorithm of Instances answering SettledOn with it.
type hastyAlg func(i *Instance, r core.Round, msgs []core.IncomingMessage) bool

func (hastyAlg) Name() string { return "LastVoting, hasty" }

func (h hastyAlg) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	return &hasty{wrapped{Instance: *Algorithm{}.NewInstance(p, n, initial).(*Instance), step: (*Instance).Transition}, h}
}

// TestSweepRejectsHastySettledOn: the contract check that
// TestExhaustiveHeardOfSweep holds SettledOn to has teeth. The live
// driver's fourth closing rule (live/node.go) trusts a true answer to be
// one no later message of the round can take back; each of the conditions
// one is tempted to drop fails that, at a pinned place.
func TestSweepRejectsHastySettledOn(t *testing.T) {
	for _, twin := range []struct {
		name    string
		settles hastyAlg
		want    string
	}{
		// "A majority acked, that decides": a process that missed the vote
		// hears the same acks and decides nothing on them.
		{"ack round without having adopted", func(i *Instance, r core.Round, msgs []core.IncomingMessage) bool {
			adopted := *i
			adopted.ackable = true
			return adopted.SettledOn(r, msgs)
		}, "settled: inputs [1 0 0] round 2: p0 says {2} settles the round, and {0,2} leaves another state"},
		// "My own ack is as good as a majority": with Coord(1) counted it is,
		// in phase 1 at n = 3. Not in phase 2 — only Coord(1) is born locked,
		// a later coordinator's ack is what says it adopted its own vote, and
		// the second ack may never come (the coordinator is caught first: the
		// second ack would make it ready).
		{"ack round on a single ack", func(i *Instance, r core.Round, msgs []core.IncomingMessage) bool {
			_, pos := PhaseOf(r)
			return pos == 3 && i.ackable && len(msgs) > 0 && msgs[0].Payload == ackMsg{}
		}, "settled: inputs [1 0 0] round 6: p1 says {1} settles the round, and {1,2} leaves another state"},
		// "Nothing but the vote counts in the vote round, so any message will
		// do": the one that counts may still be on its way.
		{"phase-1 vote round on any message", func(i *Instance, r core.Round, msgs []core.IncomingMessage) bool {
			return r == 1 && len(msgs) > 0
		}, "settled: inputs [1 0 0] round 1: p0 says {1} settles the round, and {0,1} leaves another state"},
		// "Coord(1) settles its vote round at entry, so may Coord(φ)": not
		// before it has heard its own vote — a coordinator that does not
		// hear itself adopts nothing.
		{"phase-2 vote round at the coordinator", func(i *Instance, r core.Round, msgs []core.IncomingMessage) bool {
			phase, pos := PhaseOf(r)
			return i.SettledOn(r, msgs) || (phase > 1 && pos == 2 && i.p == Coord(phase, i.n))
		}, "settled: inputs [1 0 0] round 5: p1 says {} settles the round, and {1} leaves another state"},
	} {
		check := &settled{alg: twin.settles, inputs: []core.Value{1, 0, 0}}
		sweep(t, hosweep.Sweep{Alg: check.alg, Inputs: check.inputs, Rounds: 7, Restarts: true, Visit: check.visit})
		if got := fmt.Sprint(check.violation); got != twin.want {
			t.Errorf("SettledOn %s:\n got %s\nwant %s", twin.name, got, twin.want)
		}
	}
}
