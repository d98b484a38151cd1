package otr

import (
	"testing"
	"testing/quick"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/predicate"
	"heardof/internal/xrand"
)

func values(vs ...int64) []core.Value {
	out := make([]core.Value, len(vs))
	for i, v := range vs {
		out[i] = core.Value(v)
	}
	return out
}

func mustRunner(t *testing.T, initial []core.Value, prov core.HOProvider) *core.Runner {
	t.Helper()
	ru, err := core.NewRunner(Algorithm{}, initial, prov)
	if err != nil {
		t.Fatal(err)
	}
	return ru
}

func TestFaultFreeUnanimousDecidesInOneRound(t *testing.T) {
	ru := mustRunner(t, values(5, 5, 5, 5), adversary.Full{})
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.NumRounds() != 1 {
		t.Errorf("decided in %d rounds, want 1", tr.NumRounds())
	}
	for p, d := range tr.Decisions {
		if !d.Decided || d.Value != 5 {
			t.Errorf("p%d decision %v, want 5", p, d)
		}
	}
}

func TestFaultFreeMixedValuesDecideInTwoRounds(t *testing.T) {
	ru := mustRunner(t, values(3, 1, 2, 9), adversary.Full{})
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Round 1: everyone adopts min = 1. Round 2: everyone decides 1.
	if tr.NumRounds() != 2 {
		t.Errorf("decided in %d rounds, want 2", tr.NumRounds())
	}
	for p, d := range tr.Decisions {
		if !d.Decided || d.Value != 1 {
			t.Errorf("p%d decision %v, want 1", p, d)
		}
	}
}

func TestNoProgressWithoutTwoThirdsQuorum(t *testing.T) {
	// Every process hears only 2 of 4 processes (= 2n/3 not exceeded for
	// n=4? 2*3=6 > 8 is false), so no state changes and nobody decides.
	prov := core.HOProviderFunc(func(r core.Round, n int) []core.PIDSet {
		out := make([]core.PIDSet, n)
		for p := 0; p < n; p++ {
			out[p] = core.SetOf(core.ProcessID(p), core.ProcessID((p+1)%n))
		}
		return out
	})
	ru := mustRunner(t, values(1, 2, 3, 4), prov)
	ru.RunRounds(20)
	for p, inst := range ru.Instances() {
		oi := inst.(*Instance)
		if oi.X() != core.Value(p+1) {
			t.Errorf("p%d estimate changed to %d without quorum", p, oi.X())
		}
		if _, ok := oi.Decided(); ok {
			t.Errorf("p%d decided without quorum", p)
		}
	}
}

func TestAdoptsOverwhelmingValue(t *testing.T) {
	// n=6: five processes hold 9, one holds 1. With full HO sets, all six
	// see five 9s: 5 >= 6 - floor(6/3) = 4, so 9 is adopted everywhere
	// even though 1 is smaller, and 5 > 2*6/3 = 4 decides 9 immediately.
	ru := mustRunner(t, values(9, 9, 9, 9, 9, 1), adversary.Full{})
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p, d := range tr.Decisions {
		if d.Value != 9 {
			t.Errorf("p%d decided %d, want 9", p, d.Value)
		}
	}
}

func TestSmallestRuleWhenNoDominantValue(t *testing.T) {
	// n=3, distinct values, full HO: no value reaches m - floor(n/3) = 2,
	// so everyone adopts min=1; next round everyone decides 1.
	ru := mustRunner(t, values(2, 1, 3), adversary.Full{})
	tr, err := ru.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p, d := range tr.Decisions {
		if d.Value != 1 {
			t.Errorf("p%d decided %d, want 1", p, d.Value)
		}
	}
}

func TestTheorem1LivenessUnderPotr(t *testing.T) {
	// The ScriptedPotr provider guarantees P_otr with r0 = 4 after three
	// totally lossy rounds; OneThirdRule must then decide (Theorem 1).
	for n := 2; n <= 9; n++ {
		pi0 := core.FullSet(n)
		prov := adversary.ScriptedPotr{R0: 4, Pi0: pi0}
		initial := make([]core.Value, n)
		for i := range initial {
			initial[i] = core.Value(i * 7 % 5)
		}
		ru, err := core.NewRunner(Algorithm{}, initial, prov)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ru.Run(20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !(predicate.Potr{}).Holds(tr) {
			t.Fatalf("n=%d: provider failed to realize Potr", n)
		}
		if err := tr.CheckConsensusSafety(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !tr.AllDecided() {
			t.Fatalf("n=%d: not all processes decided under Potr", n)
		}
	}
}

func TestTheorem2RestrictedScope(t *testing.T) {
	// Π0 = {0..4} of n=7 (|Π0| = 5 > 14/3). Processes outside Π0 hear
	// nothing; all processes in Π0 must decide (Theorem 2).
	n := 7
	pi0 := core.SetOf(0, 1, 2, 3, 4)
	prov := adversary.SpaceUniformRounds{Pi0: pi0, From: 2, To: 10}
	initial := values(1, 2, 3, 4, 5, 6, 7)
	ru, err := core.NewRunner(Algorithm{}, initial, prov)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := ru.Run(10)
	if !(predicate.PrestrOtr{}).Holds(tr) {
		t.Fatal("provider failed to realize PrestrOtr")
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	if !tr.DecidedSet().Contains(pi0) {
		t.Errorf("decided set %v does not contain Π0 %v", tr.DecidedSet(), pi0)
	}
	_ = n
}

func TestSafetyUnderArbitraryAdversary(t *testing.T) {
	// Agreement and integrity must hold for every heard-of assignment
	// (OneThirdRule never violates safety). 2000 random adversarial runs.
	for seed := uint64(0); seed < 2000; seed++ {
		n := 3 + int(seed%6)
		prov := &adversary.Arbitrary{RNG: xrand.New(seed), EmptyBias: 0.2}
		initial := make([]core.Value, n)
		rng := xrand.New(seed ^ 0xabcdef)
		for i := range initial {
			initial[i] = core.Value(rng.Intn(4))
		}
		ru, err := core.NewRunner(Algorithm{}, initial, prov)
		if err != nil {
			t.Fatal(err)
		}
		ru.RunRounds(30)
		if err := ru.Trace().CheckConsensusSafety(); err != nil {
			t.Fatalf("seed %d n=%d: %v", seed, n, err)
		}
	}
}

func TestSafetyUnderPartition(t *testing.T) {
	// A 4/3 split of n=7: the 4-group is below the 2n/3 threshold
	// (3*4 = 12 ≤ 14), so nobody decides, and safety trivially holds.
	groups := []core.PIDSet{core.SetOf(0, 1, 2, 3), core.SetOf(4, 5, 6)}
	ru := mustRunner(t, values(1, 1, 1, 1, 2, 2, 2), adversary.Partition{Groups: groups})
	ru.RunRounds(20)
	tr := ru.Trace()
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	if !tr.DecidedSet().IsEmpty() {
		t.Errorf("processes decided under a below-quorum partition: %v", tr.DecidedSet())
	}
}

func TestMajorityPartitionStillSafe(t *testing.T) {
	// A 6/1 split of n=7: the 6-group exceeds 2n/3 and decides; the
	// singleton cannot. Agreement must hold among deciders.
	groups := []core.PIDSet{core.SetOf(0, 1, 2, 3, 4, 5), core.SetOf(6)}
	ru := mustRunner(t, values(3, 1, 4, 1, 5, 9, 2), adversary.Partition{Groups: groups})
	ru.RunRounds(20)
	tr := ru.Trace()
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	if !tr.DecidedSet().Contains(groups[0]) {
		t.Errorf("majority group did not decide: %v", tr.DecidedSet())
	}
	if tr.DecidedSet().Has(6) {
		t.Error("isolated process decided")
	}
}

func TestCrashStopSPClass(t *testing.T) {
	// Crash-stop faults (SP class): 2 of 7 crash at round 3; the rest
	// still exceed 2n/3 (5*3 = 15 > 14) and decide.
	prov := adversary.CrashStop{CrashRound: map[core.ProcessID]core.Round{5: 3, 6: 3}}
	ru := mustRunner(t, values(4, 4, 2, 2, 2, 1, 1), prov)
	tr, err := ru.Run(20)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicTransientDTClass(t *testing.T) {
	// DT faults: 15% iid transmission loss; consensus should still be
	// reached quickly with high probability, and safety must always hold.
	decided := 0
	const runs = 50
	for seed := uint64(0); seed < runs; seed++ {
		prov := &adversary.TransmissionLoss{Rate: 0.15, RNG: xrand.New(seed)}
		ru := mustRunner(t, values(1, 2, 3, 4, 5, 6, 7), prov)
		tr, err := ru.Run(100)
		if err == nil {
			decided++
		}
		if serr := tr.CheckConsensusSafety(); serr != nil {
			t.Fatalf("seed %d: %v", seed, serr)
		}
	}
	if decided < runs*9/10 {
		t.Errorf("only %d/%d runs decided under 15%% DT loss", decided, runs)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 42).(*Instance)
	inst.Transition(1, []core.IncomingMessage{
		{From: 0, Payload: message{X: 42}},
		{From: 1, Payload: message{X: 42}},
		{From: 2, Payload: message{X: 42}},
	})
	snap := inst.Snapshot()
	if v, ok := inst.Decided(); !ok || v != 42 {
		t.Fatal("instance should have decided 42")
	}

	fresh := Algorithm{}.NewInstance(0, 3, 0).(*Instance)
	fresh.Restore(snap)
	if v, ok := fresh.Decided(); !ok || v != 42 {
		t.Error("restored instance lost decision")
	}
	if fresh.X() != 42 {
		t.Errorf("restored estimate = %d, want 42", fresh.X())
	}
	// Restoring garbage is a no-op.
	fresh.Restore("not a snapshot")
	if v, ok := fresh.Decided(); !ok || v != 42 {
		t.Error("garbage Restore clobbered state")
	}
}

func TestForeignPayloadsIgnored(t *testing.T) {
	inst := Algorithm{}.NewInstance(0, 3, 7).(*Instance)
	inst.Transition(1, []core.IncomingMessage{
		{From: 0, Payload: "garbage"},
		{From: 1, Payload: 123},
		{From: 2, Payload: nil},
	})
	if inst.X() != 7 {
		t.Errorf("estimate changed to %d on foreign payloads", inst.X())
	}
}

// Property: in any single fault-free round over arbitrary initial values,
// all processes adopt the same estimate (the preparation step of Theorem 1).
func TestUniformRoundForcesConvergence(t *testing.T) {
	f := func(raw []int8) bool {
		n := len(raw)
		if n < 1 || n > 16 {
			return true
		}
		initial := make([]core.Value, n)
		for i, v := range raw {
			initial[i] = core.Value(v)
		}
		ru, err := core.NewRunner(Algorithm{}, initial, adversary.Full{})
		if err != nil {
			return false
		}
		ru.RunRounds(1)
		want := ru.Instances()[0].(*Instance).X()
		for _, inst := range ru.Instances() {
			if inst.(*Instance).X() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRestoreStateRoundTrip(t *testing.T) {
	// OTR has no phase bookkeeping: the whole instance is stable state
	// and must round-trip through AppendState/RestoreState exactly.
	inst := Algorithm{}.NewInstance(0, 4, 9).(*Instance)
	inst.x, inst.decided, inst.decision = 42, true, 42
	rec := Algorithm{}.NewInstance(0, 4, 0).(*Instance)
	if err := rec.RestoreState(inst.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if rec.x != 42 {
		t.Errorf("x = %d, want 42", rec.x)
	}
	if v, ok := rec.Decided(); !ok || v != 42 {
		t.Errorf("decision = (%d, %v), want (42, true)", v, ok)
	}

	undecided := Algorithm{}.NewInstance(1, 4, 7).(*Instance)
	rec2 := Algorithm{}.NewInstance(1, 4, 0).(*Instance)
	if err := rec2.RestoreState(undecided.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if rec2.x != 7 {
		t.Errorf("x = %d, want 7", rec2.x)
	}
	if _, ok := rec2.Decided(); ok {
		t.Error("undecided instance recovered as decided")
	}

	for _, b := range [][]byte{nil, {0x80}, inst.AppendState(nil)[:2], append(inst.AppendState(nil), 0)} {
		if err := rec2.RestoreState(b); err == nil {
			t.Errorf("RestoreState(%x) accepted corrupt state", b)
		}
	}
}
