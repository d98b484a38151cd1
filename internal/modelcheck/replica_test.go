package modelcheck

import (
	"testing"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/otr"
)

// TestCheckFreshRetry is the locked-vote-discard mutant kill: the
// seeded fresh-instance retry must produce a split decision the
// invariant engine flags, and the identical schedule against the real
// core must stay clean with every replica applying the same batch.
func TestCheckFreshRetry(t *testing.T) {
	mutated := CheckFreshRetry(true)
	if mutated.Violation == nil {
		t.Fatalf("mutant not flagged: %+v", mutated)
	}
	if mutated.Violation.Kind != "agreement" {
		t.Fatalf("expected agreement violation, got %q: %s",
			mutated.Violation.Kind, mutated.Violation.Message)
	}

	control := CheckFreshRetry(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v",
			control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 1 {
			t.Fatalf("control: replica %d applied %d slots, want 1 (all: %v)",
				p, applied, control.Applied)
		}
	}
}

// TestCheckDrift is the jump-rule mutant kill: without the jump rule
// two lockstep survivors one round apart never decide (drift-livelock
// finding); with it they realign and both apply.
func TestCheckDrift(t *testing.T) {
	mutated := CheckDrift(true)
	if mutated.Violation != nil {
		t.Fatalf("mutant produced a safety violation, want livelock finding: %+v", mutated.Violation)
	}
	if !hasFinding(mutated.Findings, "drift-livelock") {
		t.Fatalf("mutant not flagged with drift-livelock: %+v", mutated)
	}

	control := CheckDrift(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v",
			control.Violation, control.Findings)
	}
	if control.Applied[0] != 1 || control.Applied[1] != 1 {
		t.Fatalf("control: survivors applied %v, want slot 1 on both", control.Applied)
	}
}

// TestCheckStall is the dissemination-window regression (a fault-envelope
// limitation once, closed by riders and self-contained pushes): a network
// that strips the batches from the round messages and pushes naming them
// leaves the deciders with the id alone — the decided-unheld invariant —
// and crash-stopping the proposer then surfaces as an availability
// finding, agreement intact.
// Under an honest network the same schedule is clean: the vote brought
// the contents, so the stall is unreachable.
func TestCheckStall(t *testing.T) {
	stalled := CheckStall(true)
	if stalled.Violation == nil || stalled.Violation.Kind != "decided-unheld" {
		t.Fatalf("stripped riders: violation %+v, want decided-unheld and no other", stalled.Violation)
	}
	if !hasFinding(stalled.Findings, "stall-window") {
		t.Fatalf("stall not flagged: %+v", stalled)
	}

	control := CheckStall(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v",
			control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 1 {
			t.Fatalf("control: replica %d applied %d slots, want 1 (all: %v)",
				p, applied, control.Applied)
		}
	}
}

// TestCheckMergeSkip is the merge mutant kill: a merge that drops a
// source's first unapplied entry but keeps the next commits a session's
// seq 2 without its seq 1, which only the session-gap invariant
// notices; the real merge commits both, in order, in one slot.
func TestCheckMergeSkip(t *testing.T) {
	mutated := CheckMergeSkip(true)
	if mutated.Violation == nil || mutated.Violation.Kind != "session-gap" {
		t.Fatalf("mutant not flagged as session-gap: %+v", mutated)
	}
	control := CheckMergeSkip(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v",
			control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 3 {
			t.Fatalf("control: replica %d applied %d slots, want 3 (all: %v)",
				p, applied, control.Applied)
		}
	}
}

func hasFinding(fs []ReplicaFinding, kind string) bool {
	for _, f := range fs {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

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

// TestReplicaExploreOTR is the run the issue's acceptance names: n=3,
// two slots, one crash, full asynchronous soup — zero safety
// violations on the unmutated protocol. MaxRound 2 is where OTR
// decides (the round-1 transition, which needs unanimous proposals —
// hence one proposer and MaxBatch 1 so each submission rides its own
// slot). The reachable space at this scope exceeds any CI budget even
// with coverability pruning, so this is bounded verification: a
// 150k-state depth-first sample, every state checked, with the
// MaxApplied assertion proving the sample drives both slots through
// decide and apply, and the MaxOpen assertion that it also has both in
// flight at one replica. Most of this space decides nothing — a replica
// asked into slot 1 before the batch reached it opens slot 2 for that
// batch the moment it arrives (its own slot-1 proposal, the no-op, does
// not carry it), and two OTR instances then run side by side with
// neither able to decide — so the sample reaches both guards only
// because Explore walks send-order deliveries before reorderings and
// crashes (see its comment; DESIGN.md §10 has the numbers).
func TestReplicaExploreOTR(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded exploration skipped in -short")
	}
	if raceDetectorEnabled {
		// The explorer is single-goroutine: the race detector cannot find
		// anything here and turns this sweep from ~30s into minutes. The
		// CI model-check job runs the same scope race-free.
		t.Skip("bounded exploration skipped under the race detector")
	}
	m, err := NewReplicaModel(ReplicaModel{
		N:           3,
		Slots:       2,
		MaxRound:    2,
		CrashBudget: 1,
		Algorithm:   otr.Algorithm{},
		Msg:         otr.WireCodec{},
		MaxBatch:    1,
		Workload: []Submission{
			{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 0, Client: 2, Seq: 1, Cmd: 'b'},
		},
		MaxStates: 150_000,
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
	if res.MaxApplied < 2 {
		t.Fatalf("exploration never applied both slots (maxApplied=%d)", res.MaxApplied)
	}
	if res.MaxOpen < 2 {
		t.Fatalf("exploration never had both slots in flight (maxOpen=%d)", res.MaxOpen)
	}
	t.Logf("explored %d states (complete=%v), %d transitions, maxApplied=%d, maxOpen=%d, findings: %+v",
		res.States, res.Complete, res.Transitions, res.MaxApplied, res.MaxOpen, res.Findings)
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
// re-running it — 1 260 405 states, 2.4 min:
// CI's model-check job runs it, here it is bounded, every state checked.
// The first 150k states are where the restarted coordinator that
// announced a decision it no longer knew was found (79k states in). A
// second sample runs the same scope through phase 2 (MaxRound 8), where
// a recovered replica resumes among estimates, votes and acks of a phase
// that asked first. Neither sample would find recovery re-running a slot
// from round 1 (MutForgetRound survives 1.5M states of the second):
// that takes the two scripted schedules below.
func TestReplicaExploreLastVotingThree(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3 closure skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("n=3 closure skipped under the race detector (single-goroutine explorer)")
	}
	exploreClean(t, lastVotingModel(3, 4, 1, 0, 0), true)
	exploreClean(t, lastVotingModel(3, 4, 0, 1, 150_000), false)
	exploreClean(t, lastVotingModel(3, 8, 0, 1, 150_000), false)
}

// TestCheckForgetVote is the recovery-mutant kill: a restart that
// discards the persisted locked vote must produce a split decision,
// while the real recovery path — identical schedule — restores the
// lock, steers the surviving pair back to the decided batch, and stays
// clean.
func TestCheckForgetVote(t *testing.T) {
	mutated := CheckForgetVote(true)
	if mutated.Violation == nil {
		t.Fatalf("mutant not flagged: %+v", mutated)
	}
	if mutated.Violation.Kind != "agreement" {
		t.Fatalf("expected agreement violation, got %q: %s",
			mutated.Violation.Kind, mutated.Violation.Message)
	}

	control := CheckForgetVote(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v",
			control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 1 {
			t.Fatalf("control: replica %d applied %d slots, want 1 (all: %v)",
				p, applied, control.Applied)
		}
	}
}

// TestCheckStallRecovery proves the PR-5 dissemination-window stall is
// closed under crash-RECOVERY: the schedule that strands a decided
// batch forever when its proposer crash-STOPS (TestCheckStall) ends
// with every replica applied when the proposer instead reboots from
// its write-ahead state.
func TestCheckStallRecovery(t *testing.T) {
	res := CheckStallRecovery()
	if res.Flagged() {
		t.Fatalf("recovery run flagged: violation=%+v findings=%+v",
			res.Violation, res.Findings)
	}
	for p, applied := range res.Applied {
		if applied != 1 {
			t.Fatalf("replica %d applied %d slots, want 1 (all: %v)", p, applied, res.Applied)
		}
	}
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

// TestCheckWindowDisjoint is the overlap-rule mutant kill: proposals of
// open slots that share no command lose the earlier one's commands
// whenever the earlier slot decides somebody else's batch.
func TestCheckWindowDisjoint(t *testing.T) {
	mutated := CheckWindowDisjoint(true)
	if mutated.Violation == nil || mutated.Violation.Kind != "session-gap" {
		t.Fatalf("mutant not flagged as session-gap: %+v", mutated)
	}
	control := CheckWindowDisjoint(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v", control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 2 {
			t.Fatalf("control: replica %d applied %d slots, want 2 (all: %v)", p, applied, control.Applied)
		}
	}
}

// TestCheckPruneOpen is the retention-rule mutant kill: a proposal whose
// entries all applied through an overlapping batch must be kept while a
// slot it was proposed for can still decide it.
func TestCheckPruneOpen(t *testing.T) {
	mutated := CheckPruneOpen(true)
	if mutated.Violation == nil || mutated.Violation.Kind != "decided-unheld" {
		t.Fatalf("mutant not flagged as decided-unheld: %+v", mutated)
	}
	control := CheckPruneOpen(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v", control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 3 {
			t.Fatalf("control: replica %d applied %d slots, want 3 (all: %v)", p, applied, control.Applied)
		}
	}
}

// TestReplicaExploreLastVotingWindow closes the scope in which the slot
// window actually runs: p0 accepts two commands of one session back to
// back, so slot 2 opens — with a proposal that overlaps slot 1's — while
// slot 1 is still in round 1, and from there the adversary interleaves
// the two instances' rounds, timeouts (one per open slot) and decisions
// freely: slot 2 deciding first and waiting its turn, one batch id
// decided in both slots, a replica asked into both slots by a single
// message. MaxOpen 2 is the vacuity guard for all of it, MaxApplied 2
// for in-order apply behind it. n=2 because at n=3 two LastVoting
// instances side by side leave any budget behind (400k states without
// one apply); the n=3 window schedules are the scripted probes'.
func TestReplicaExploreLastVotingWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("two-slot closure skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("two-slot closure skipped under the race detector (single-goroutine explorer)")
	}
	m, err := NewReplicaModel(ReplicaModel{
		N:           2,
		Slots:       2,
		MaxRound:    4,
		CrashBudget: 1,
		Algorithm:   lastvoting.Algorithm{},
		Msg:         lastvoting.WireCodec{},
		Workload: []Submission{
			{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 0, Client: 1, Seq: 2, Cmd: 'b'},
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
		t.Fatalf("safety violation in unmutated protocol: %s: %s", res.Violation.Kind, res.Violation.Message)
	}
	if !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxOpen != 2 || res.MaxApplied != 2 {
		t.Fatalf("vacuous exploration: maxOpen=%d maxApplied=%d, want 2 and 2", res.MaxOpen, res.MaxApplied)
	}
	t.Logf("window closure: %d states, %d transitions, maxOpen=%d, maxApplied=%d, findings: %+v",
		res.States, res.Transitions, res.MaxOpen, res.MaxApplied, res.Findings)
}

// TestReplicaExploreOTRThreeSlotClosure is the hold's scope. Every scope
// above has Slots ≤ the window, so none of their states can receive a
// round message for a slot ahead of it; with three slots, a replica still
// on slot 1 gets slot 3's round messages from a peer that has applied
// slot 1, keeps them (live.ReplicaCore's held set: cloned, fingerprinted,
// heard when the slot opens) and later opens slot 3 with them. n=2 closes
// this in seconds, under a crash; MaxHeld is the vacuity guard. The round
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
	if res.MaxHeld < 1 || res.MaxApplied != 3 || res.MaxOpen != 2 {
		t.Fatalf("vacuous exploration: maxHeld=%d maxApplied=%d maxOpen=%d, want ≥ 1, 3 and 2", res.MaxHeld, res.MaxApplied, res.MaxOpen)
	}
}

// probeKillsAgreement runs a recovery probe both ways: the mutated run
// must split a decision, the control must be clean with slot 1 applied
// everywhere.
func probeKillsAgreement(t *testing.T, probe func(mutated bool) ProbeResult) {
	t.Helper()
	mutated := probe(true)
	if mutated.Violation == nil || mutated.Violation.Kind != "agreement" {
		t.Fatalf("mutant not flagged as agreement: %+v", mutated)
	}
	control := probe(false)
	if control.Flagged() {
		t.Fatalf("control run flagged: violation=%+v findings=%+v", control.Violation, control.Findings)
	}
	for p, applied := range control.Applied {
		if applied != 1 {
			t.Fatalf("control: replica %d applied %d slots, want 1 (all: %v)", p, applied, control.Applied)
		}
	}
}

// TestRecoveredVoteNeverLowersTimestamp: a restarted replica that re-runs
// its slot from round 1 (MutForgetRound) re-adopts an old vote of a
// phase below its lock and hands the decision to a straggler; the real
// recovery resumes past the last round it sent in, where that vote is a
// stale round.
func TestRecoveredVoteNeverLowersTimestamp(t *testing.T) {
	probeKillsAgreement(t, CheckTSRegress)
}

// TestRecoveredReplicaNeverAcksBehindItsEstimate: the same mutant, the
// other half of the lock argument — an ack for phase 1 sent after a
// phase-2 estimate that said "nothing adopted", counted with a stale ack
// into a majority for a value nobody locked.
func TestRecoveredReplicaNeverAcksBehindItsEstimate(t *testing.T) {
	probeKillsAgreement(t, CheckReliveAck)
}
