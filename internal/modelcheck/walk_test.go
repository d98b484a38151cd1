package modelcheck

import (
	"testing"

	"heardof/internal/otr"
)

// walkClean walks m and fails on a violation, on a finding, on a run the
// state budget cut, and on a guard below its floor.
func walkClean(t *testing.T, m ReplicaModel, applied uint64, open int) ReplicaResult {
	t.Helper()
	model, err := NewReplicaModel(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil || len(res.Findings) > 0 {
		t.Fatalf("unmutated protocol flagged: violation %+v, findings %+v", res.Violation, res.Findings)
	}
	if !res.Complete {
		t.Fatalf("expected full closure at this scope, stopped after %d states", res.States)
	}
	if res.MaxApplied < applied || res.MaxOpen < open {
		t.Fatalf("vacuous walk: maxApplied=%d maxOpen=%d, want ≥ %d and ≥ %d", res.MaxApplied, res.MaxOpen, applied, open)
	}
	t.Logf("walk closure: %d states, %d transitions, maxApplied=%d, maxOpen=%d", res.States, res.Transitions, res.MaxApplied, res.MaxOpen)
	return res
}

// walkKills fails unless a kill walk stops at a violation of the given
// kind; the scope's control is walkClean's.
func walkKills(t *testing.T, walk func(bool) ProbeResult, kind string) ProbeResult {
	t.Helper()
	res := walk(true)
	if res.Violation == nil || res.Violation.Kind != kind {
		t.Fatalf("mutant not flagged as %s: %+v", kind, res)
	}
	t.Logf("killed: %s", res.Violation.Message)
	return res
}

// skipLong skips the walks that take seconds under -short and under the
// race detector (the walk is single-goroutine: the detector finds nothing
// and multiplies the time).
func skipLong(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("long walk skipped in -short and under the race detector")
	}
}

// TestWalkOTR closes OneThirdRule at n=3 with two slots in flight and a
// crash-stop: one proposer, one command per slot (MaxBatch 1) so that the
// proposals of a slot are unanimous, which OTR needs to decide at round
// bound 2. The soup only ever sampled this scope (150k states).
func TestWalkOTR(t *testing.T) {
	walkClean(t, ReplicaModel{
		N:           3,
		Slots:       2,
		MaxRound:    2,
		CrashBudget: 1,
		MaxBatch:    1,
		Algorithm:   otr.Algorithm{},
		Msg:         otr.WireCodec{},
		Workload: []Submission{
			{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 0, Client: 2, Seq: 1, Cmd: 'b'},
		},
	}, 2, 2)
}

// TestWalkLastVotingReboot closes LastVoting at n=3 through two phases
// (round bound 8) under one reboot anywhere — the scope the soup could only
// sample.
func TestWalkLastVotingReboot(t *testing.T) {
	skipLong(t)
	walkClean(t, lastVotingScope(1, 8, 0, 1, 0, 1), 1, 1)
}

// TestWalkLastVotingWindow closes LastVoting at n=3 with two slots in
// flight through two phases under one reboot.
func TestWalkLastVotingWindow(t *testing.T) {
	skipLong(t)
	walkClean(t, lastVotingScope(2, 8, 0, 1, 0, 2), 2, 2)
}

// TestCheckForgetVote: a reboot from a disk that lost the votes
// (mutForgetVote) splits a decision, found without a script: the rebooted
// replica reopens the slot lockless and the slot is decided again, as the
// no-op, against the decided batch. The honest disk closes the scope clean.
func TestCheckForgetVote(t *testing.T) {
	skipLong(t)
	walkClean(t, rebootScope(), 1, 1)
	walkKills(t, WalkForgetVote, "agreement")
}

// TestCheckForgetRound: a reboot from a disk that lost the round saved with
// the vote (mutForgetRound) re-runs the slot from round 1 and hears the
// round messages its first run was sent — round messages stay addressable
// by (slot, round) — and splits a decision, found without a script.
// TestCheckForgetVote closes the same scope with the honest disk.
func TestCheckForgetRound(t *testing.T) {
	skipLong(t)
	walkKills(t, WalkForgetRound, "agreement")
}

// TestCheckStall: a network that strips the batches from the messages
// naming them (stripRiders) leaves the deciders with an id alone, and a
// crash-stop of the proposer in the same macro-step strands the batch —
// decided-unheld, with the stall finding on the report. The honest network
// closes the scope clean.
func TestCheckStall(t *testing.T) {
	walkClean(t, stallScope(), 1, 1)
	res := walkKills(t, WalkStall, "decided-unheld")
	if !res.Has("stall-window") {
		t.Fatalf("no stall-window finding: %+v", res.Findings)
	}
}

// TestCheckMergeSkip: a merge that drops a forwarded command is found
// where a forward is heard without the round message sent before it; the
// real merge closes the scope clean.
func TestCheckMergeSkip(t *testing.T) {
	walkClean(t, forwardScope(), 1, 1)
	walkKills(t, WalkMergeSkip, "session-gap")
}

// TestWalkWithinSoup cross-checks the two engines: every tuple of core
// fingerprints (with the crash mask) the walk reaches, the soup's closure
// of the same scope reaches too — the walk invents no behaviour. The
// soup's coverability pruning only skips states whose cores it has
// already queued, so its set of core configurations is complete.
func TestWalkWithinSoup(t *testing.T) {
	for _, m := range []ReplicaModel{
		lastVotingModel(2, 8, 1, 0, 0),
		{N: 3, Slots: 1, MaxRound: 2, CrashBudget: 1, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{},
			Workload: []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}}},
	} {
		model, err := NewReplicaModel(m)
		if err != nil {
			t.Fatal(err)
		}
		configs := func(explore func(func(*rcState)) (ReplicaResult, error)) map[string]bool {
			set := map[string]bool{}
			res, err := explore(func(st *rcState) {
				k := []byte{st.crashed}
				for _, fp := range st.coreFP {
					k = append(append(k, fp...), 0xFF)
				}
				set[string(k)] = true
			})
			if err != nil || res.Violation != nil || !res.Complete {
				t.Fatalf("no clean closure: %v %+v", err, res)
			}
			return set
		}
		soup, walk := configs(model.explore), configs(model.walk)
		for k := range walk { //holint:allow nodeterminism the count is order-insensitive
			if !soup[k] {
				t.Fatalf("%T n=%d: the walk reaches a core configuration the soup does not", m.Algorithm, m.N)
			}
		}
		t.Logf("%T n=%d: walk %d core configurations ⊆ soup %d", m.Algorithm, m.N, len(walk), len(soup))
	}
}
