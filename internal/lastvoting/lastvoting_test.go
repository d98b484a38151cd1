package lastvoting

import (
	"encoding/binary"
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
	// HO sets of size 2 of n=5: below majority. The two heard are the most
	// a decision could lean on — Coord(1), born committed, and an adopter —
	// but Coord(1) counted plus one ack is two of five, no later
	// coordinator ever commits, and nobody ever decides.
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
	// Coord(1) votes its own proposal in round 1, unasked, and is born
	// locked to it: (x, ts) = (proposal, 1), in the state a vote record
	// carries.
	born := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	if msg := born.Send(1); msg != (voteMsg{V: 5}) {
		t.Fatalf("Coord(1) round-1 send = %v, want its own proposal as the vote", msg)
	}
	if born.x != 5 || born.ts != 1 {
		t.Errorf("Coord(1) born at (x, ts) = (%d, %d), want (5, 1)", born.x, born.ts)
	}
	// Nobody else is: p1 coordinates phase 2 and has to ask first.
	other := Algorithm{}.NewInstance(1, 3, 6).(*Instance)
	if other.commit || other.ts != 0 {
		t.Errorf("a process other than Coord(1) was born committed (%v) or locked (ts %d)", other.commit, other.ts)
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
	// Its lock is stable state and comes back: phase 2's coordinator,
	// hearing it beside a ts-0 estimate listed first, votes the lock.
	if rec.x != 5 || rec.ts != 1 {
		t.Errorf("recovered (x, ts) = (%d, %d), want the persisted lock (5, 1)", rec.x, rec.ts)
	}
	other.Transition(4, []core.IncomingMessage{
		{From: 2, Payload: estimateMsg{X: 7, TS: 0}},
		{From: 0, Payload: rec.Send(4)},
	})
	if !other.commit || other.vote != 5 {
		t.Errorf("phase-2 coordinator voted (%v, %d), want the locked 5", other.commit, other.vote)
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

	// p2 of five adopts phase 1's vote and hears three acks, Coord(1)'s
	// counted: decided, one round before the coordinator could tell it.
	adopter := Algorithm{}.NewInstance(2, 5, 8).(*Instance)
	adopter.Transition(1, vote)
	adopter.Transition(2, acks(1, 2))
	if v, ok := adopter.Decided(); !ok || v != 5 {
		t.Errorf("adopter with a majority of acks: decided (%d, %v), want (5, true)", v, ok)
	}
	// Its own ack and Coord(1)'s are not a majority of five.
	lonely := Algorithm{}.NewInstance(2, 5, 8).(*Instance)
	lonely.Transition(1, vote)
	lonely.Transition(2, acks(2))
	if _, ok := lonely.Decided(); ok {
		t.Error("decided on a minority of acks")
	}
	// A process that missed the vote, and the coordinator's ack with it,
	// holds its own estimate, not the locked value: the acks of others tell
	// it THAT something is locked, not what. It waits for the decide round.
	missed := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	missed.Transition(1, nil)
	missed.Transition(2, acks(1))
	if _, ok := missed.Decided(); ok {
		t.Error("decided on acks for a vote it never adopted")
	}
	missed.Transition(3, []core.IncomingMessage{{From: 0, Payload: decideMsg{V: 5}}})
	if v, ok := missed.Decided(); !ok || v != 5 {
		t.Errorf("decide round: (%d, %v), want (5, true)", v, ok)
	}
	// The coordinator still becomes ready for that round, on its own count
	// and one ack.
	coord := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	coord.Transition(1, vote)
	coord.Transition(2, acks(1))
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

func TestRestoreLocksCoordinatorOfAnUnlockedRecord(t *testing.T) {
	// A vote record of Coord(1) as a build that bore it at ts 0 wrote it:
	// x 5, ts 0, vote 5, commit, nothing decided. x is still the proposal
	// it was born voting for, so it restores locked, as if born now.
	var old []byte
	old = binary.AppendVarint(old, 5)
	old = binary.AppendVarint(old, 0)
	old = binary.AppendVarint(old, 5)
	old = append(old, 1)
	old = binary.AppendVarint(old, 0)
	rec := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	if err := rec.RestoreState(old); err != nil {
		t.Fatal(err)
	}
	if rec.x != 5 || rec.ts != 1 {
		t.Errorf("Coord(1) restored at (x, ts) = (%d, %d), want (5, 1)", rec.x, rec.ts)
	}
	// Only Coord(1): anyone else at ts 0 adopted nothing.
	other := Algorithm{}.NewInstance(1, 3, 9).(*Instance)
	if err := other.RestoreState(old); err != nil {
		t.Fatal(err)
	}
	if other.ts != 0 {
		t.Errorf("p1 restored at ts %d from a ts-0 record, want 0", other.ts)
	}
}

func TestVoteCountsAsCoordinatorAck(t *testing.T) {
	// An adopter of phase 1's vote counts Coord(1) among the acks
	// whether its ack arrived or not. At n = 3 its own ack completes the
	// majority, so the ack round decides on the adopter's own message.
	own := []core.IncomingMessage{{From: 1, Payload: ackMsg{}}}
	p1 := Algorithm{}.NewInstance(1, 3, 8).(*Instance)
	p1.Transition(1, []core.IncomingMessage{{From: 0, Payload: voteMsg{V: 5}}})
	if !p1.SettledOn(2, own) {
		t.Error("SettledOn(ack round, own ack) = false at n = 3, want true")
	}
	p1.Transition(2, own)
	if v, ok := p1.Decided(); !ok || v != 5 {
		t.Errorf("adopter on its own ack: (%d, %v), want (5, true)", v, ok)
	}
	// At n = 4 the majority is three: own ack and Coord(1) need a third.
	q := Algorithm{}.NewInstance(1, 4, 8).(*Instance)
	q.Transition(1, []core.IncomingMessage{{From: 0, Payload: voteMsg{V: 5}}})
	if q.SettledOn(2, own) {
		t.Error("SettledOn at n = 4 on own ack and Coord(1)'s, want false")
	}
	third := append(own, core.IncomingMessage{From: 2, Payload: ackMsg{}})
	if !q.SettledOn(2, third) {
		t.Error("SettledOn at n = 4 on two acks and Coord(1)'s, want true")
	}
	// Phase 2 is as in [6]: its coordinator (p1) is counted only by its ack.
	p2 := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	p2.Transition(5, []core.IncomingMessage{{From: 1, Payload: voteMsg{V: 5}}})
	if p2.SettledOn(6, []core.IncomingMessage{{From: 2, Payload: ackMsg{}}}) {
		t.Error("phase-2 adopter decides on its own ack alone")
	}
}

func TestCoordinatorAckNamesItsVote(t *testing.T) {
	// Coord(1)'s round-2 message is its vote again. A process that missed
	// the vote adopts it (ts 1) from that ack and counts itself beside
	// Coord(1): at n = 3 it decides there, on that one message.
	c := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	c.Transition(1, []core.IncomingMessage{{From: 0, Payload: c.Send(1)}})
	ack := c.Send(2)
	if ack != (voteMsg{V: 5}) {
		t.Fatalf("Coord(1) ack-round send = %v, want its vote 5", ack)
	}
	heard := []core.IncomingMessage{{From: 0, Payload: ack}}
	missed := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	missed.Transition(1, nil)
	if !missed.SettledOn(2, heard) {
		t.Error("SettledOn(ack round, Coord(1)'s ack) = false for a process that missed the vote")
	}
	missed.Transition(2, heard)
	if v, ok := missed.Decided(); !ok || v != 5 || missed.x != 5 || missed.ts != 1 {
		t.Errorf("missed the vote, heard the ack: decided (%d, %v) at (x, ts) = (%d, %d), want 5 at (5, 1)",
			v, ok, missed.x, missed.ts)
	}
	// At n = 4 the two are no majority: it adopts, and needs an ack beside.
	wide := Algorithm{}.NewInstance(2, 4, 8).(*Instance)
	wide.Transition(1, nil)
	if !wide.SettledOn(2, append(heard, core.IncomingMessage{From: 1, Payload: ackMsg{}})) {
		t.Error("SettledOn at n = 4 on Coord(1)'s ack and p1's, having missed the vote, want true")
	}
	wide.Transition(2, heard)
	if _, ok := wide.Decided(); ok || wide.x != 5 || wide.ts != 1 {
		t.Errorf("n = 4, heard only Coord(1)'s ack: decided %v at (x, ts) = (%d, %d), want undecided at (5, 1)", ok, wide.x, wide.ts)
	}
	// Coord(1) is counted once: if it missed its own vote and hears only
	// its own ack, it has no majority.
	deaf := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	deaf.Transition(1, nil)
	if deaf.SettledOn(2, []core.IncomingMessage{{From: 0, Payload: deaf.Send(2)}}) {
		t.Error("Coord(1) decides on its own ack alone")
	}
	// A restarted Coord(1) has no vote to name; a later coordinator acks
	// as in [6].
	rec := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	if err := rec.RestoreState(c.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if msg := rec.Send(2); msg != nil {
		t.Errorf("restarted Coord(1) ack-round send = %v, want nil", msg)
	}
	c2 := Algorithm{}.NewInstance(1, 3, 6).(*Instance)
	c2.Transition(5, []core.IncomingMessage{{From: 1, Payload: voteMsg{V: 6}}})
	if msg := c2.Send(6); msg != (ackMsg{}) {
		t.Errorf("phase-2 coordinator ack-round send = %v, want an ack", msg)
	}
}

func TestVoteRoundSettlesOnTheVote(t *testing.T) {
	// Phase 1's vote round reads Coord(1)'s message and nothing else: it
	// is settled once the vote is heard — at Coord(1) on entry, on its own
	// vote — and by nothing else.
	c := Algorithm{}.NewInstance(0, 3, 5).(*Instance)
	vote := []core.IncomingMessage{{From: 0, Payload: c.Send(1)}}
	if !c.SettledOn(1, vote) {
		t.Error("Coord(1) is not settled on its own vote at entry")
	}
	p1 := Algorithm{}.NewInstance(1, 3, 8).(*Instance)
	if p1.SettledOn(1, []core.IncomingMessage{{From: 1}, {From: 2}}) {
		t.Error("vote round settled on two null messages, without the vote")
	}
	if !p1.SettledOn(1, append(vote, core.IncomingMessage{From: 1})) {
		t.Error("vote round not settled with the vote heard")
	}
	// A later phase's vote round is not: its coordinator's ack does not
	// name the vote for whoever the early close lets it overtake.
	p2 := Algorithm{}.NewInstance(2, 3, 8).(*Instance)
	if p2.SettledOn(5, []core.IncomingMessage{{From: 1, Payload: voteMsg{V: 6}}}) {
		t.Error("phase-2 vote round settled on its coordinator's vote")
	}
}
