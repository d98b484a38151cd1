package modelcheck

import (
	"slices"
	"testing"

	"heardof/internal/core"
	"heardof/internal/live"
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

// TestKill runs the kill suite, the one table hocheck -live -mutant runs:
// every mutant is flagged its way and every control is clean. The walks
// that take seconds are skipped under -short and the race detector.
func TestKill(t *testing.T) {
	for _, name := range Mutants() {
		t.Run(name, func(t *testing.T) {
			if slices.Contains([]string{"forget-vote", "forget-round", "window-disjoint"}, name) {
				skipLong(t)
			}
			report, killed := Kill(name)
			if !killed {
				t.Fatal(report)
			}
			t.Log(report)
		})
	}
}

// TestWalkWithinSoup cross-checks the two engines: every tuple of core
// fingerprints (with the crash mask) the walk reaches, the soup's closure
// of the same scope reaches too — the walk invents no behaviour. The
// soup's coverability pruning only skips states whose cores it has
// already queued, so its set of core configurations is complete. The OTR
// scope is walked a second time under a predicate that cuts p1's round
// messages and forces p2's: a predicate only takes choices away, and the
// forcing must not add any.
func TestWalkWithinSoup(t *testing.T) {
	cutP1ForceP2 := func(_ core.ProcessID, env live.Envelope) int {
		switch {
		case env.Kind != live.KindRound:
			return 0
		case env.From == 1:
			return -1
		case env.From == 2:
			return 1
		}
		return 0
	}
	for _, scope := range []struct {
		m     ReplicaModel
		hears []func(core.ProcessID, live.Envelope) int
	}{
		{lastVotingModel(2, 8, 1, 0, 0), []func(core.ProcessID, live.Envelope) int{nil}},
		{ReplicaModel{N: 3, Slots: 1, MaxRound: 2, CrashBudget: 1, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{},
			Workload: []Submission{{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'}}}, []func(core.ProcessID, live.Envelope) int{nil, cutP1ForceP2}},
	} {
		model, err := NewReplicaModel(scope.m)
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
			if err != nil || res.Violation != nil || !res.Complete || res.MaxApplied == 0 {
				t.Fatalf("no clean closure that applies: %v %+v", err, res)
			}
			return set
		}
		soup := configs(model.explore)
		for _, hears := range scope.hears {
			model.hears = hears
			walk := configs(model.walk)
			for k := range walk { //holint:allow nodeterminism the count is order-insensitive
				if !soup[k] {
					t.Fatalf("%T n=%d (restricted %v): the walk reaches a core configuration the soup does not", model.Algorithm, model.N, hears != nil)
				}
			}
			t.Logf("%T n=%d (restricted %v): walk %d core configurations ⊆ soup %d", model.Algorithm, model.N, hears != nil, len(walk), len(soup))
		}
	}
}
