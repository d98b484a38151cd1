package lastvoting

import (
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/xrand"
)

func vals(vs ...int64) []core.Value {
	out := make([]core.Value, len(vs))
	for i, v := range vs {
		out[i] = core.Value(v)
	}
	return out
}

func TestPhaseArithmetic(t *testing.T) {
	tests := []struct {
		r     core.Round
		phase core.Round
		pos   int
	}{
		// Phase 1 has no estimate round: it starts at position 2.
		{1, 1, 2}, {2, 1, 3}, {3, 1, 4},
		{4, 2, 1}, {5, 2, 2}, {7, 2, 4}, {8, 3, 1}, {11, 3, 4}, {12, 4, 1},
	}
	for _, tt := range tests {
		phase, pos := PhaseOf(tt.r)
		if phase != tt.phase || pos != tt.pos {
			t.Errorf("PhaseOf(%d) = (%d, %d), want (%d, %d)", tt.r, phase, pos, tt.phase, tt.pos)
		}
	}
	if Coord(1, 4) != 0 || Coord(2, 4) != 1 || Coord(5, 4) != 0 {
		t.Error("Coord rotation wrong")
	}
}

func TestFaultFreeDecidesInOnePhase(t *testing.T) {
	ru, err := core.NewRunner(Algorithm{}, vals(3, 1, 4, 1, 5), adversary.Full{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.NumRounds() != 2 {
		t.Errorf("decided after %d rounds, want 2 (phase 1's vote and ack rounds)", tr.NumRounds())
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	// Coord(1) is born committed to its own proposal, everyone adopts it
	// in round 1 and hears everyone's ack in round 2.
	want := core.Value(3)
	for p, d := range tr.Decisions {
		if !d.Decided || d.Value != want {
			t.Errorf("p%d decision %v, want %d", p, d, want)
		}
	}
}

func TestMajorityHOSufficesUnlikeOTR(t *testing.T) {
	// LastVoting needs only majorities: with HO sets of size 3 of n=5
	// (60% < 2n/3+ǫ required by OTR for n=5 ⇒ 4), consensus still
	// completes provided the coordinator is heard. Everyone hears
	// {coordinator, p, p+1}... simplest: everyone hears {0, 1, 2}.
	pi0 := core.SetOf(0, 1, 2)
	prov := core.HOProviderFunc(func(r core.Round, n int) []core.PIDSet {
		out := make([]core.PIDSet, n)
		for p := range out {
			out[p] = pi0
		}
		return out
	})
	ru, err := core.NewRunner(Algorithm{}, vals(9, 8, 7, 6, 5), prov)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(8)
	if err != nil {
		t.Fatalf("LastVoting did not decide with majority HO sets: %v", err)
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestNoDecisionWithoutMajority(t *testing.T) {
	// HO sets of size 2 of n=5: below majority, the coordinator never
	// commits and nobody ever decides.
	prov := core.HOProviderFunc(func(r core.Round, n int) []core.PIDSet {
		out := make([]core.PIDSet, n)
		for p := range out {
			out[p] = core.SetOf(0, 1)
		}
		return out
	})
	ru, err := core.NewRunner(Algorithm{}, vals(1, 2, 3, 4, 5), prov)
	if err != nil {
		t.Fatal(err)
	}
	ru.RunRounds(40)
	if !ru.Trace().DecidedSet().IsEmpty() {
		t.Error("decided below majority")
	}
}

func TestCoordinatorCrashRotatesToNextPhase(t *testing.T) {
	// Phase 1's coordinator (process 0) is silent from the start (SP
	// crash); phase 2's coordinator (process 1) completes the protocol.
	prov := adversary.CrashStop{CrashRound: map[core.ProcessID]core.Round{0: 1}}
	ru, err := core.NewRunner(Algorithm{}, vals(4, 4, 4, 4, 4), prov)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(16)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.MaxDecisionRound() != 6 {
		t.Errorf("decided at round %d, want 6 (phase 2's ack round)", tr.MaxDecisionRound())
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestSafetyUnderArbitraryAdversary(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		n := 2 + int(seed%6)
		prov := &adversary.Arbitrary{RNG: xrand.New(seed), EmptyBias: 0.2}
		initial := make([]core.Value, n)
		rng := xrand.New(seed ^ 0x1111)
		for i := range initial {
			initial[i] = core.Value(rng.Intn(3))
		}
		ru, err := core.NewRunner(Algorithm{}, initial, prov)
		if err != nil {
			t.Fatal(err)
		}
		ru.RunRounds(40)
		if err := ru.Trace().CheckConsensusSafety(); err != nil {
			t.Fatalf("seed %d n=%d: %v", seed, n, err)
		}
	}
}

func TestSafetyUnderTransmissionLoss(t *testing.T) {
	// The paper's Paxos remark: LastVoting works in the crash-recovery
	// model because loss is just a transmission fault. 30% loss, many
	// seeds: safety always, liveness usually.
	decided := 0
	const runs = 40
	for seed := uint64(0); seed < runs; seed++ {
		prov := &adversary.TransmissionLoss{Rate: 0.3, RNG: xrand.New(seed)}
		ru, err := core.NewRunner(Algorithm{}, vals(1, 2, 3, 4, 5), prov)
		if err != nil {
			t.Fatal(err)
		}
		tr, runErr := ru.Run(200)
		if runErr == nil {
			decided++
		}
		if err := tr.CheckConsensusSafety(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if decided < runs/2 {
		t.Errorf("only %d/%d runs decided under 30%% loss", decided, runs)
	}
}

func TestNullPayloadRounds(t *testing.T) {
	// Non-coordinators send nil in vote and decide rounds, and so does a
	// coordinator with nothing to vote for (p1 coordinates phase 2, whose
	// vote round is 5); nils must be ignored.
	inst := Algorithm{}.NewInstance(1, 3, 5).(*Instance)
	if msg := inst.Send(1); msg != nil {
		t.Errorf("non-coordinator round-1 send = %v, want nil", msg)
	}
	if msg := inst.Send(5); msg != nil {
		t.Errorf("non-committed coordinator round-5 send = %v, want nil", msg)
	}
	inst.Transition(5, []core.IncomingMessage{
		{From: 0, Payload: nil},
		{From: 2, Payload: nil},
	})
	if inst.ackable {
		t.Error("became ackable without a vote message")
	}
}

func TestSnapshotRestore(t *testing.T) {
	// p1 coordinates phase 2, whose estimate round is 4.
	inst := Algorithm{}.NewInstance(1, 3, 5).(*Instance)
	inst.Transition(4, []core.IncomingMessage{
		{From: 1, Payload: estimateMsg{X: 5, TS: 0}},
		{From: 2, Payload: estimateMsg{X: 7, TS: 1}},
	})
	if !inst.commit || inst.vote != 7 {
		t.Fatalf("coordinator did not commit to the highest-ts value: commit=%v vote=%d",
			inst.commit, inst.vote)
	}
	snap := inst.Snapshot()
	fresh := Algorithm{}.NewInstance(1, 3, 0).(*Instance)
	fresh.Restore(snap)
	if !fresh.commit || fresh.vote != 7 {
		t.Error("restore incomplete")
	}
	fresh.Restore(123)
	if fresh.vote != 7 {
		t.Error("garbage restore clobbered state")
	}
}

func TestRestoreStateKeepsStableDropsPhase(t *testing.T) {
	// Build a coordinator mid-phase (p1, phase 2 = rounds 4–7): committed
	// vote, adopted estimate.
	inst := Algorithm{}.NewInstance(1, 3, 5).(*Instance)
	inst.Transition(4, []core.IncomingMessage{
		{From: 1, Payload: estimateMsg{X: 5, TS: 0}},
		{From: 2, Payload: estimateMsg{X: 7, TS: 1}},
	})
	inst.Transition(5, []core.IncomingMessage{
		{From: 1, Payload: voteMsg{V: 7}},
	})
	if !inst.commit || !inst.ackable || inst.ts != 2 {
		t.Fatalf("setup: commit=%v ackable=%v ts=%d", inst.commit, inst.ackable, inst.ts)
	}

	rec := Algorithm{}.NewInstance(1, 3, 0).(*Instance)
	if err := rec.RestoreState(inst.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	// Stable storage: the locked vote (x, ts) survives the crash.
	if rec.x != 7 || rec.ts != 2 {
		t.Errorf("locked vote lost: x=%d ts=%d, want 7/2", rec.x, rec.ts)
	}
	// Phase bookkeeping is volatile: a recovered coordinator must not
	// replay a pre-crash vote or ack a pre-crash adoption.
	if rec.commit || rec.ready || rec.ackable || rec.vote != 0 {
		t.Errorf("phase flags survived recovery: commit=%v ready=%v ackable=%v vote=%d",
			rec.commit, rec.ready, rec.ackable, rec.vote)
	}
	if rec.decided {
		t.Error("undecided instance recovered as decided")
	}

	// A decided instance keeps its decision.
	inst.Transition(7, []core.IncomingMessage{{From: 1, Payload: decideMsg{V: 7}}})
	rec2 := Algorithm{}.NewInstance(1, 3, 0).(*Instance)
	if err := rec2.RestoreState(inst.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if v, ok := rec2.Decided(); !ok || v != 7 {
		t.Errorf("decision lost: (%d, %v)", v, ok)
	}

	// Corrupt encodings are rejected, not silently applied.
	for _, b := range [][]byte{nil, {0x80}, inst.AppendState(nil)[:3], append(inst.AppendState(nil), 9)} {
		if err := rec2.RestoreState(b); err == nil {
			t.Errorf("RestoreState(%x) accepted corrupt state", b)
		}
	}
}

func TestFirstCoordinatorIsBornCommittedOnce(t *testing.T) {
	// Coord(1) votes its own proposal in round 1, unasked.
	born := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	if msg := born.Send(1); msg != (voteMsg{V: 5}) {
		t.Fatalf("Coord(1) round-1 send = %v, want its own proposal as the vote", msg)
	}
	// Nobody else is: p1 coordinates phase 2 and has to ask first.
	other := Algorithm{}.NewInstance(1, 3, 6).(*Instance)
	if other.commit {
		t.Error("a process other than Coord(1) was born committed")
	}
	// A RECOVERED Coord(1) is not: its first incarnation may have voted
	// already, and what it restores over (here a fresh proposal, 9) need
	// not be what that vote said. It sits phase 1 out.
	rec := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	if err := rec.RestoreState(born.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if rec.commit || rec.vote != 0 {
		t.Errorf("recovered Coord(1) still committed: commit=%v vote=%d", rec.commit, rec.vote)
	}
	if msg := rec.Send(1); msg != nil {
		t.Errorf("recovered Coord(1) voted again in phase 1: %v", msg)
	}
	if rec.x != 5 {
		t.Errorf("recovered estimate %d, want the persisted 5", rec.x)
	}
}

func TestAdopterDecidesOnMajorityOfAcks(t *testing.T) {
	acks := func(from ...core.ProcessID) []core.IncomingMessage {
		var msgs []core.IncomingMessage
		for _, q := range from {
			msgs = append(msgs, core.IncomingMessage{From: q, Payload: ackMsg{}})
		}
		return msgs
	}
	vote := []core.IncomingMessage{{From: 0, Payload: voteMsg{V: 5}}}

	// p2 adopts phase 1's vote and hears two of three acks: decided, one
	// round before the coordinator could tell it.
	adopter := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	adopter.Transition(1, vote)
	adopter.Transition(2, acks(0, 2))
	if v, ok := adopter.Decided(); !ok || v != 5 {
		t.Errorf("adopter with a majority of acks: decided (%d, %v), want (5, true)", v, ok)
	}
	// One ack is not a majority.
	lonely := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	lonely.Transition(1, vote)
	lonely.Transition(2, acks(2))
	if _, ok := lonely.Decided(); ok {
		t.Error("decided on a minority of acks")
	}
	// A process that missed the vote holds its own estimate, not the
	// locked value: the acks of others tell it THAT something is locked,
	// not what. It waits for the decide round.
	missed := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	missed.Transition(1, nil)
	missed.Transition(2, acks(0, 1))
	if _, ok := missed.Decided(); ok {
		t.Error("decided on acks for a vote it never adopted")
	}
	missed.Transition(3, []core.IncomingMessage{{From: 0, Payload: decideMsg{V: 5}}})
	if v, ok := missed.Decided(); !ok || v != 5 {
		t.Errorf("decide round: (%d, %v), want (5, true)", v, ok)
	}
	// The coordinator still becomes ready for that round.
	coord := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	coord.Transition(1, vote)
	coord.Transition(2, acks(0, 1))
	if msg := coord.Send(3); msg != (decideMsg{V: 5}) {
		t.Errorf("coordinator decide-round send = %v, want decide 5", msg)
	}
}

func TestRestartedCoordinatorDoesNotDecideBlind(t *testing.T) {
	// p0 votes 5 in round 1, p1 and p2 adopt it — and p0 restarts, resuming
	// in round 2. It hears their acks: a majority, for a vote it no longer
	// knows (the vote is round state, gone with the crash; what it holds
	// is a proposal it may have re-made). It must not announce a decision.
	born := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	rec := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	if err := rec.RestoreState(born.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	rec.Transition(2, []core.IncomingMessage{{From: 1, Payload: ackMsg{}}, {From: 2, Payload: ackMsg{}}})
	if msg := rec.Send(3); msg != nil {
		t.Fatalf("restarted coordinator sent %v in the decide round without having voted", msg)
	}
	if _, ok := rec.Decided(); ok {
		t.Fatal("restarted coordinator decided on acks for a vote it never adopted")
	}
}
