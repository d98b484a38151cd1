package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/modelcheck"
	"heardof/internal/otr"
)

// report explores m and returns the report's "explored:" line and the
// verdict.
func report(t *testing.T, m modelcheck.ReplicaModel) (string, error) {
	t.Helper()
	model, err := modelcheck.NewReplicaModel(m)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = explore(&out, model)
	line, _, _ := strings.Cut(out.String(), "\n")
	return line, err
}

// TestExploreReportsViolationStop: a run halted by a violation says so,
// not that a budget cut it (the merge mutant over the forward scope of
// modelcheck's TestReplicaExploreLastVotingForward).
func TestExploreReportsViolationStop(t *testing.T) {
	line, err := report(t, modelcheck.ReplicaModel{
		N: 2, Slots: 1, MaxRound: 4, CrashBudget: 1,
		Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{},
		Mutation: live.MutMergeSkip,
		Workload: []modelcheck.Submission{
			{Replica: 1, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 1, Client: 1, Seq: 2, Cmd: 'b'},
		},
	})
	var verdict errVerdict
	if !errors.As(err, &verdict) || !strings.Contains(verdict.msg, "session-gap") {
		t.Fatalf("verdict %v, want a session-gap violation", err)
	}
	if !strings.Contains(line, "(stopped at a violation)") {
		t.Fatalf("report line %q does not say the violation stopped the run", line)
	}
}

// TestExploreReportsEffectiveBudget: a run the budget cut names the budget
// the model ran with.
func TestExploreReportsEffectiveBudget(t *testing.T) {
	line, err := report(t, modelcheck.ReplicaModel{
		N: 3, Slots: 2, MaxRound: 2, CrashBudget: 1, MaxBatch: 1, MaxStates: 500,
		Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{},
		Workload: []modelcheck.Submission{
			{Replica: 0, Client: 1, Seq: 1, Cmd: 'a'},
			{Replica: 0, Client: 2, Seq: 1, Cmd: 'b'},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "(bounded at 500 states)") {
		t.Fatalf("report line %q does not name the budget", line)
	}
}
