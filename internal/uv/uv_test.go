package uv

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

func TestFaultFreeDecidesInTwoPhases(t *testing.T) {
	ru, err := core.NewRunner(Algorithm{}, vals(4, 2, 7), adversary.Full{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Phase 1: distinct values, so round 1 is not uniform — everyone
	// adopts min=2 but nobody votes; round 2 carries only ⊥. Phase 2:
	// round 3 is uniform on 2, everyone votes 2; round 4 decides 2.
	if tr.NumRounds() != 4 {
		t.Errorf("decided in %d rounds, want 4", tr.NumRounds())
	}
	for p, d := range tr.Decisions {
		if !d.Decided || d.Value != 2 {
			t.Errorf("p%d decision = %v, want 2", p, d)
		}
	}
}

func TestUnanimousInputsDecideInOnePhase(t *testing.T) {
	ru, err := core.NewRunner(Algorithm{}, vals(6, 6, 6, 6), adversary.Full{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.NumRounds() != 2 {
		t.Errorf("decided in %d rounds, want 2", tr.NumRounds())
	}
}

func TestNonEmptyKernelPreservesSafety(t *testing.T) {
	// UniformVoting's predicate class: every round has a non-empty
	// kernel. Here process 0 is in everyone's HO set every round, with
	// everything else random: safety must hold for any such run, and the
	// estimates never diverge into a decided disagreement.
	for seed := uint64(0); seed < 300; seed++ {
		n := 3 + int(seed%5)
		rng := xrand.New(seed)
		prov := core.HOProviderFunc(func(r core.Round, n int) []core.PIDSet {
			out := make([]core.PIDSet, n)
			for p := 0; p < n; p++ {
				out[p] = (core.PIDSet(rng.Uint64()) & core.FullSet(n)).Add(0)
			}
			return out
		})
		initial := make([]core.Value, n)
		for i := range initial {
			initial[i] = core.Value(rng.Intn(4))
		}
		ru, err := core.NewRunner(Algorithm{}, initial, prov)
		if err != nil {
			t.Fatal(err)
		}
		ru.RunRounds(24)
		if err := ru.Trace().CheckConsensusSafety(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSafetyIsConditionalOnNonEmptyKernels(t *testing.T) {
	// Unlike OneThirdRule (whose safety is unconditional), UniformVoting
	// is safe only together with its predicate: rounds with empty kernels
	// can split the system into cliques that decide differently. This is
	// why [6] pairs it with the non-empty-kernel predicate class. The
	// test documents the conditionality by exhibiting a violation under
	// an arbitrary adversary — if no violation existed, the predicate
	// would be unnecessary.
	violated := false
	for seed := uint64(0); seed < 500 && !violated; seed++ {
		n := 2 + int(seed%6)
		prov := &adversary.Arbitrary{RNG: xrand.New(seed), EmptyBias: 0.25}
		initial := make([]core.Value, n)
		rng := xrand.New(seed ^ 0x77)
		for i := range initial {
			initial[i] = core.Value(rng.Intn(3))
		}
		ru, err := core.NewRunner(Algorithm{}, initial, prov)
		if err != nil {
			t.Fatal(err)
		}
		ru.RunRounds(30)
		tr := ru.Trace()
		if !tr.IntegrityHolds() {
			t.Fatalf("seed %d: integrity violated — that must NEVER happen", seed)
		}
		if !tr.AgreementHolds() {
			violated = true
		}
	}
	if !violated {
		t.Error("no agreement violation found under arbitrary adversaries; " +
			"expected UniformVoting's safety to be predicate-conditional")
	}
}

func TestDecidesAfterUniformPhaseFollowingNoise(t *testing.T) {
	// Noise rounds (non-empty kernels would be needed for liveness in
	// general; silence is fine for safety) followed by full rounds: the
	// first full phase decides.
	prov := adversary.Scripted{
		Rounds: [][]core.PIDSet{
			make([]core.PIDSet, 4), // silent round 1
			make([]core.PIDSet, 4), // silent round 2
		},
		Then: adversary.Full{},
	}
	ru, err := core.NewRunner(Algorithm{}, vals(5, 6, 7, 8), prov)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ru.Run(12)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	for p, d := range tr.Decisions {
		if d.Value != 5 {
			t.Errorf("p%d decided %d, want 5", p, d.Value)
		}
	}
}

func TestVoteRequiresUniformReception(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	inst.Transition(1, []core.IncomingMessage{
		{From: 0, Payload: proposal{X: 9}},
		{From: 1, Payload: proposal{X: 3}},
	})
	if inst.hasVote {
		t.Error("voted despite non-uniform values")
	}
	if inst.X() != 3 {
		t.Errorf("x = %d, want min 3", inst.X())
	}
	inst.Transition(3, []core.IncomingMessage{
		{From: 0, Payload: proposal{X: 3}},
		{From: 1, Payload: proposal{X: 3}},
	})
	if !inst.hasVote || inst.vote != 3 {
		t.Error("did not vote on uniform values")
	}
}

func TestEmptyRoundKeepsState(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	inst.Transition(1, nil)
	inst.Transition(2, nil)
	if inst.X() != 9 {
		t.Errorf("x = %d after empty rounds, want 9", inst.X())
	}
	if _, ok := inst.Decided(); ok {
		t.Error("decided on empty rounds")
	}
}

func TestMixedVotesAdoptButDoNotDecide(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 9).(*Instance)
	inst.Transition(2, []core.IncomingMessage{
		{From: 0, Payload: ballot{Vote: 4, Valid: true}},
		{From: 1, Payload: ballot{Valid: false}},
	})
	if inst.X() != 4 {
		t.Errorf("x = %d, want adopted vote 4", inst.X())
	}
	if _, ok := inst.Decided(); ok {
		t.Error("decided despite a ⊥ vote in the mix")
	}
}

func TestSnapshotRestore(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 1).(*Instance)
	inst.Transition(1, []core.IncomingMessage{
		{From: 0, Payload: proposal{X: 1}},
		{From: 1, Payload: proposal{X: 1}},
		{From: 2, Payload: proposal{X: 1}},
	})
	snap := inst.Snapshot()
	fresh := Algorithm{}.NewInstance(0, 3, 0).(*Instance)
	fresh.Restore(snap)
	if fresh.X() != 1 || !fresh.hasVote || fresh.vote != 1 {
		t.Error("restore incomplete")
	}
	fresh.Restore("garbage")
	if fresh.X() != 1 {
		t.Error("garbage restore clobbered state")
	}
}

func TestRestoreStateRoundTrip(t *testing.T) {
	// Every binary-valued state survives AppendState/RestoreState exactly.
	for bits := 0; bits < 32; bits++ {
		inst := &Instance{p: 1, n: 3, x: core.Value(bits & 1),
			hasVote: bits&2 != 0, vote: core.Value(bits >> 2 & 1),
			decided: bits&8 != 0, decision: core.Value(bits >> 4 & 1)}
		if (!inst.hasVote && inst.vote != 0) || (!inst.decided && inst.decision != 0) {
			continue
		}
		rec := Algorithm{}.NewInstance(1, 3, 7).(*Instance)
		if err := rec.RestoreState(inst.AppendState(nil)); err != nil || *rec != *inst {
			t.Errorf("state %05b restored as %+v (%v), want %+v", bits, *rec, err, *inst)
		}
	}

	// ⊥ is canonical: a vote left over from an earlier phase does not show.
	stale := Algorithm{}.NewInstance(0, 3, 4).(*Instance)
	stale.Transition(1, []core.IncomingMessage{{From: 0, Payload: proposal{X: 4}}})
	stale.Transition(2, nil)
	fresh := Algorithm{}.NewInstance(0, 3, 4).(*Instance)
	if got, want := stale.AppendState(nil), fresh.AppendState(nil); stale.vote != 4 || string(got) != string(want) {
		t.Errorf("stale vote %d encodes as %x, a fresh instance as %x", stale.vote, got, want)
	}

	voted := (&Instance{x: 1, hasVote: true, vote: 1}).AppendState(nil)
	for _, b := range [][]byte{nil, {0x80}, {2}, {2, 4, 0, 0}, {2, 0, 2, 0}, voted[:3], append(voted, 0)} {
		if err := fresh.RestoreState(b); err == nil {
			t.Errorf("RestoreState(%x) accepted corrupt state", b)
		}
	}
}
