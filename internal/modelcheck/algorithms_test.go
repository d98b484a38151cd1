package modelcheck

import (
	"testing"

	"heardof/internal/core"
	"heardof/internal/hosweep"
	"heardof/internal/otr"
	"heardof/internal/quorum"
	"heardof/internal/uv"
)

// The algorithm-level verdicts, through the one lock-step heard-of sweep
// (internal/hosweep): OneThirdRule and UniformVoting to the fixpoint of
// their reachable sets, which covers runs of any length. LastVoting's are
// in its own package, beside the variants that need its private fields.

func run(t *testing.T, s hosweep.Sweep) hosweep.Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// otrCloses sweeps OneThirdRule under every heard-of assignment, without
// and with crash-restart: safe, and the same states both times — all of
// OTR's state is stable, a restart is a round in which nobody was heard.
// A wantStates of 0 pins no count.
func otrCloses(t *testing.T, wantStates int, inputs ...core.Value) {
	t.Helper()
	for _, restarts := range []bool{false, true} {
		res := run(t, hosweep.Sweep{Alg: otr.Algorithm{}, Inputs: inputs, Period: 1, Restarts: restarts})
		if res.Violation != nil {
			t.Fatal(res.Violation)
		}
		if res.States != wantStates && wantStates > 0 {
			t.Errorf("inputs %v restarts %v: %d reachable states, want %d", inputs, restarts, res.States, wantStates)
		}
	}
}

func TestExhaustiveOTRSafetyN3(t *testing.T) { otrCloses(t, 9, 0, 1, 1) }
func TestExhaustiveOTRSafetyN4(t *testing.T) { otrCloses(t, 102, 0, 0, 1, 1) }
func TestExhaustiveOTRSafetyN5(t *testing.T) { otrCloses(t, 244, 0, 0, 1, 1, 1) }

// Every binary input pattern for n=3 (value symmetry covers the rest).
func TestExhaustiveOTRAllInputPatterns(t *testing.T) {
	for _, inputs := range [][]core.Value{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {0, 1, 1}, {1, 1, 1}} {
		otrCloses(t, 0, inputs...)
	}
}

// UniformVoting is safe when every round's kernel is non-empty ...
func TestExhaustiveUVSafeUnderNonEmptyKernels(t *testing.T) {
	res := run(t, hosweep.Sweep{Alg: uv.Algorithm{}, Inputs: []core.Value{0, 1, 1}, Period: 2, Families: hosweep.NonEmptyKernel(3)})
	if res.Violation != nil || res.States != 51 {
		t.Errorf("%d reachable states, want 51; violation %v", res.States, res.Violation)
	}
}

// ... and unsafe without the predicate. A kernel among the processes that
// are up is not enough either: the process that was down for a round
// heard nobody in it, and P_nek ranges over every HO(p, r).
func TestExhaustiveUVUnsafeUnderArbitraryHO(t *testing.T) {
	for _, tc := range []struct {
		s    hosweep.Sweep
		want string
	}{
		{hosweep.Sweep{}, "agreement: inputs [0 1 1] round 2: p1 decided 0, p2 decided 1"},
		{hosweep.Sweep{Families: hosweep.NonEmptyKernel(3), Restarts: true}, "agreement: inputs [0 1 1] round 4: p0 decided 0, p2 decided 1"},
	} {
		tc.s.Alg, tc.s.Inputs, tc.s.Period = uv.Algorithm{}, []core.Value{0, 1, 1}, 2
		if res := run(t, tc.s); res.Violation == nil || res.Violation.Error() != tc.want {
			t.Errorf("restarts %v:\n got %v\nwant %s", tc.s.Restarts, res.Violation, tc.want)
		}
	}
}

// TestOTRTerminatesUnderPotr is Theorem 1 at small scope: from EVERY state
// of the closure — whatever the heard-of sets were so far — a round in
// which everybody hears the same Π0, |Π0| > 2n/3, and then a round in
// which everybody hears more than 2n/3 leave every process decided (P_otr,
// Table 1, at its tightest). And the predicate is not stronger than
// needed: with |Π0| = ⌊2n/3⌋ some run stays undecided.
func TestOTRTerminatesUnderPotr(t *testing.T) {
	for _, inputs := range [][]core.Value{{0, 1, 1}, {0, 0, 1, 1}} {
		n := len(inputs)
		var states [][]core.Instance
		run(t, hosweep.Sweep{Alg: otr.Algorithm{}, Inputs: inputs, Period: 1,
			Visit: func(_ core.Round, _, to []core.Instance) { states = append(states, to) }})

		undecidedUnderWeaker := 0
		for _, from := range states {
			for pi0 := core.PIDSet(0); pi0 <= core.FullSet(n); pi0++ {
				enough := quorum.ExceedsTwoThirds(pi0.Len(), n)
				if !enough && pi0.Len() != 2*n/3 {
					continue
				}
				run(t, hosweep.Sweep{Alg: otr.Algorithm{}, Inputs: inputs, Start: from, Rounds: 2,
					Families: []hosweep.Family{func(r core.Round, _ core.ProcessID, ho core.PIDSet) bool {
						if r == 1 {
							return ho == pi0
						}
						return quorum.ExceedsTwoThirds(ho.Len(), n)
					}},
					Visit: func(r core.Round, _, to []core.Instance) {
						for _, inst := range to {
							if _, ok := inst.Decided(); ok || r != 2 {
								continue
							}
							if undecidedUnderWeaker++; enough {
								t.Fatalf("n=%d: Π0=%v and a round of |HO| > 2n/3 leave a process undecided", n, pi0)
							}
						}
					}})
			}
		}
		if undecidedUnderWeaker == 0 {
			t.Errorf("n=%d: a uniform round over only ⌊2n/3⌋ processes also always decides: the negative twin is vacuous", n)
		}
		t.Logf("n=%d: P_otr decides from each of %d closure states", n, len(states))
	}
}

func TestCheckerValidation(t *testing.T) {
	ok := hosweep.Sweep{Alg: otr.Algorithm{}, Inputs: []core.Value{0, 1, 1}, Period: 1}
	none, many, endless, short := ok, ok, ok, ok
	none.Inputs, many.Inputs, endless.Period, short.Start = nil, make([]core.Value, 9), 0, make([]core.Instance, 2)
	for i, s := range []hosweep.Sweep{none, many, endless, short} {
		if _, err := s.Run(); err == nil {
			t.Errorf("bad sweep %d accepted", i)
		}
	}
}

// The kernel families' union is exactly the non-empty-kernel assignments.
func TestNonEmptyKernelFilter(t *testing.T) {
	fams := hosweep.NonEmptyKernel(3)
	for joint := core.PIDSet(0); joint < 1<<9; joint++ {
		ho := [3]core.PIDSet{joint & 7, joint >> 3 & 7, joint >> 6}
		admitted := false
		for _, fam := range fams {
			admitted = admitted || (fam(1, 0, ho[0]) && fam(1, 1, ho[1]) && fam(1, 2, ho[2]))
		}
		if kernel := ho[0] & ho[1] & ho[2]; admitted == kernel.IsEmpty() {
			t.Fatalf("HO %v, kernel %v: admitted %v", ho, kernel, admitted)
		}
	}
}
