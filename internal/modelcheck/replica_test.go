package modelcheck

import (
	"testing"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/otr"
)

// TestReplicaExploreOTRClosure exhausts the full reachable space at
// the scope where closure is tractable: n=3, one slot, one crash, the
// complete asynchronous soup. Complete=true here means every reachable
// state was checked — an actual proof within the bounds, not a sample.
func TestReplicaExploreOTRClosure(t *testing.T) {
	m, err := NewReplicaModel(ReplicaModel{
		N:           3,
		Slots:       1,
		MaxRound:    2,
		CrashBudget: 1,
		Algorithm:   otr.Algorithm{},
		Msg:         otr.WireCodec{},
		Workload:    []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("safety violation in unmutated protocol: %s: %s",
			res.Violation.Kind, res.Violation.Message)
	}
	if !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxApplied == 0 {
		t.Fatal("vacuous exploration: no reachable state ever applied a slot")
	}
	t.Logf("closure: %d states, %d transitions, maxApplied=%d, findings: %+v",
		res.States, res.Transitions, res.MaxApplied, res.Findings)
}

// lastVotingModel is the scope the LastVoting explorations share: one
// submission at p0, phase 1's coordinator.
func lastVotingModel(n int, maxRound int, crashes, recoveries, maxStates int) ReplicaModel {
	return ReplicaModel{
		N:              n,
		Slots:          1,
		MaxRound:       core.Round(maxRound),
		CrashBudget:    crashes,
		RecoveryBudget: recoveries,
		MaxStates:      maxStates,
		Algorithm:      lastvoting.Algorithm{},
		Msg:            lastvoting.WireCodec{},
		Workload:       []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}},
	}
}

// exploreClean explores m and fails on a violation, on a vacuous run, and
// — when closure is expected — on a bounded one.
func exploreClean(t *testing.T, m ReplicaModel, wantComplete bool) ReplicaResult {
	t.Helper()
	model, err := NewReplicaModel(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("safety violation in unmutated protocol: %s: %s", res.Violation.Kind, res.Violation.Message)
	}
	if wantComplete && !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxApplied == 0 {
		t.Fatal("vacuous exploration: no reachable state ever applied a slot")
	}
	t.Logf("explored %d states (complete=%v), %d transitions, maxApplied=%d, findings: %+v",
		res.States, res.Complete, res.Transitions, res.MaxApplied, res.Findings)
	return res
}

// TestReplicaExploreLastVoting closes the coordinated algorithm at n=2
// through two whole phases: MaxRound 8 lets every round of phase 1
// (rounds 1–3: vote, ack, decide) and of phase 2 (rounds 4–7, the first
// with an estimate round) transition, under one crash-stop and under one
// crash-recovery — where a restarted replica resumes the slot past the
// last round it sent in with its vote restored, in the middle of whatever
// phase that is: the setting of the coordinator that must not be born
// committed twice, nor announce a vote it no longer knows.
func TestReplicaExploreLastVoting(t *testing.T) {
	exploreClean(t, lastVotingModel(2, 8, 1, 0, 0), true)
	if testing.Short() || raceDetectorEnabled {
		return // the reboot closure is 2.5× the states; the explorer is single-goroutine
	}
	exploreClean(t, lastVotingModel(2, 8, 0, 1, 0), true)
}

// TestReplicaExploreLastVotingThree closes phase 1 at n=3, where a
// majority is not everybody: MaxRound 4 lets the vote, ack and decide
// rounds transition, so the closure holds every interleaving of "an
// adopter decides on its own ack and the coordinator's vote", "the third
// misses the vote and adopts it from the coordinator's ack, or learns by
// decide message or by sync", and one crash-stop anywhere. (With four
// rounds to a decision this scope did not close; with two it is 538 646
// states — 607 828 before the coordinator's vote counted as its ack,
// 632 010 before an ack round closed on its first majority.) The
// crash-RECOVERY twin closes too since recovery resumes a slot instead of
// re-running it, and both closures are asserted complete: 46 021 and
// 101 068 states, the whole test ≈ 25 s on a 2-core host. The reboot
// scope is where the restarted coordinator that announced a decision it
// no longer knew was found. Through phase 2 (MaxRound 8) the soup does
// not close; the lock-step walk does (TestWalkLastVotingReboot).
func TestReplicaExploreLastVotingThree(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3 closure skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("n=3 closure skipped under the race detector (single-goroutine explorer)")
	}
	exploreClean(t, lastVotingModel(3, 4, 1, 0, 0), true)
	exploreClean(t, lastVotingModel(3, 4, 0, 1, 0), true)
}

// TestReplicaExploreOTRRecoveryClosure exhausts the reachable space
// with one crash-RECOVERY in the adversary's budget (alongside the
// usual message soup): any replica may, at any point, be atomically
// replaced by its production recovery image. Complete=true makes this
// a proof, within the n=3 / one-slot scope, that rebooting from the
// write-ahead state preserves agreement, integrity, apply-once, and
// commit monotonicity no matter where the crash lands. Recovery resumes
// a slot past the last round it sent in, so a replica rebooted in round
// 1 is next heard in round 2: MaxRound 3 lets that round transition (325k
// states); at the other closures' bound of 2 (26k states, what -short and
// -race run) it can only learn the decision by sync.
func TestReplicaExploreOTRRecoveryClosure(t *testing.T) {
	maxRound := core.Round(3)
	if testing.Short() || raceDetectorEnabled {
		maxRound = 2
	}
	m, err := NewReplicaModel(ReplicaModel{
		N:              3,
		Slots:          1,
		MaxRound:       maxRound,
		RecoveryBudget: 1,
		Algorithm:      otr.Algorithm{},
		Msg:            otr.WireCodec{},
		Workload:       []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("safety violation under crash-recovery: %s: %s",
			res.Violation.Kind, res.Violation.Message)
	}
	if !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxApplied == 0 {
		t.Fatal("vacuous exploration: no reachable state ever applied a slot")
	}
	t.Logf("recovery closure: %d states, %d transitions, maxApplied=%d, findings: %+v",
		res.States, res.Transitions, res.MaxApplied, res.Findings)
}

// TestReplicaExploreLastVotingForward closes the scope in which the
// forward + merge path actually runs: p1's second submission arrives
// while its slot is in flight, so a KindForward joins the soup, and p0
// (phase 1's coordinator, whose vote is its own proposal) —
// depending on what the adversary delivers first — proposes p1's batch
// id, a merged batch of its own, or nothing. MaxMerged > 0 is the
// vacuity guard for that path; session-gap (with both of client 1's
// commands in play) is the invariant it is there to break.
func TestReplicaExploreLastVotingForward(t *testing.T) {
	m, err := NewReplicaModel(ReplicaModel{
		N:           2,
		Slots:       1,
		MaxRound:    4,
		CrashBudget: 1,
		Algorithm:   lastvoting.Algorithm{},
		Msg:         lastvoting.WireCodec{},
		Workload: []Submission{
			{Replica: 1, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 1, Client: 1, Seq: 2, Cmd: 'b'},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("safety violation in unmutated protocol: %s: %s",
			res.Violation.Kind, res.Violation.Message)
	}
	if !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxApplied == 0 || res.MaxMerged == 0 {
		t.Fatalf("vacuous exploration: maxApplied=%d maxMerged=%d", res.MaxApplied, res.MaxMerged)
	}
	t.Logf("forward closure: %d states, %d transitions, maxApplied=%d, maxMerged=%d, findings: %+v",
		res.States, res.Transitions, res.MaxApplied, res.MaxMerged, res.Findings)

	// The same scope finds the seeded merge bug without a script.
	m.Mutation = live.MutMergeSkip
	res, err = m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "session-gap" {
		t.Fatalf("MutMergeSkip not flagged as session-gap: %+v", res.Violation)
	}
}

// TestReplicaExploreLastVotingWindow closes the scope in which the slot
// window actually runs: p0 accepts two commands back to back — of one
// session, and (hocheck's workload for this scope) of two — so slot 2 opens — with a proposal that overlaps slot 1's — while
// slot 1 is still in round 1, and from there the adversary interleaves
// the two instances' rounds, timeouts (one per open slot) and decisions
// freely: slot 2 deciding first and waiting its turn, one batch id
// decided in both slots, a replica asked into both slots by a single
// message. MaxOpen 2 is the vacuity guard for all of it, MaxApplied 2
// for in-order apply behind it. n=2 because at n=3 two LastVoting
// instances side by side leave any budget behind (400k states without
// one apply); at n=3 the lock-step walk closes the window's scope
// (TestWalkLastVotingWindow) and kills its two mutants under a predicate
// (kill.go).
func TestReplicaExploreLastVotingWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("two-slot closure skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("two-slot closure skipped under the race detector (single-goroutine explorer)")
	}
	for _, tc := range []struct {
		name     string
		workload []Submission
	}{
		{"one session", []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}, {Replica: 0, Client: 1, Seq: 2, Cmd: 'b'}}},
		// hocheck's workload: one command each from two clients.
		{"two sessions", []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}, {Replica: 0, Client: 2, Seq: 1, Cmd: 'b'}}},
	} {
		res := exploreClean(t, ReplicaModel{
			N:           2,
			Slots:       2,
			MaxRound:    4,
			CrashBudget: 1,
			Algorithm:   lastvoting.Algorithm{},
			Msg:         lastvoting.WireCodec{},
			Workload:    tc.workload,
		}, true)
		if res.MaxOpen != 2 || res.MaxApplied != 2 {
			t.Fatalf("%s: vacuous exploration: maxOpen=%d maxApplied=%d, want 2 and 2", tc.name, res.MaxOpen, res.MaxApplied)
		}
	}
}

// TestReplicaExploreOTRThreeSlotClosure is the join's scope. Every scope
// above has Slots ≤ the window, so none of their states can receive a
// round message for a slot ahead of it; with three slots, a replica still
// on slot 1 gets slot 3's round messages from a peer that has applied
// slot 1, and joins slot 3 on the spot (live.ReplicaCore opens every slot
// through it, beyond its own window). n=2 closes this in seconds, under a
// crash; MaxJoined is the vacuity guard. The round
// bound is 3: a replica learns of a slot's batch only from the round
// message it rides, so with one round per slot whoever holds the batch
// has heard the message that decides it, and nobody is ever a window
// behind — a second round is what lets one replica decide while its
// peer still waits for the round-2 message.
func TestReplicaExploreOTRThreeSlotClosure(t *testing.T) {
	res := exploreClean(t, ReplicaModel{
		N:           2,
		Slots:       3,
		MaxRound:    3,
		CrashBudget: 1,
		MaxBatch:    1,
		Algorithm:   otr.Algorithm{},
		Msg:         otr.WireCodec{},
		Workload: []Submission{
			{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 0, Client: 2, Seq: 1, Cmd: 'b'},
			{Replica: 0, Client: 3, Seq: 1, Cmd: 'c'},
		},
	}, true)
	if res.MaxJoined < 1 || res.MaxApplied != 3 || res.MaxOpen != 2 {
		t.Fatalf("vacuous exploration: maxJoined=%d maxApplied=%d maxOpen=%d, want ≥ 1, 3 and 2", res.MaxJoined, res.MaxApplied, res.MaxOpen)
	}
}
