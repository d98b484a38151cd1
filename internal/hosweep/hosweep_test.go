package hosweep_test

import (
	"fmt"
	"testing"

	"heardof/internal/core"
	"heardof/internal/hosweep"
	"heardof/internal/otr"
)

// The algorithms' verdicts are pinned where the algorithms are tested
// (internal/modelcheck for OneThirdRule and UniformVoting, package
// lastvoting for LastVoting; both find agreement violations). Here, the
// two checks no algorithm in the repo fails, each against a OneThirdRule
// broken for the purpose.

// broken is OneThirdRule with its instances wrapped.
type broken func(*otr.Instance) core.Instance

func (broken) Name() string { return "OneThirdRule, broken" }

func (b broken) NewInstance(p core.ProcessID, n int, initial core.Value) core.Instance {
	return b(otr.Algorithm{}.NewInstance(p, n, initial).(*otr.Instance))
}

// offByTwo reports every decision two too high.
type offByTwo struct{ *otr.Instance }

func (i offByTwo) Decided() (core.Value, bool) {
	v, ok := i.Instance.Decided()
	return v + 2, ok
}

// amnesiac saves its decision but restores only its estimate.
type amnesiac struct{ *otr.Instance }

func (i amnesiac) RestoreState(b []byte) error {
	if err := i.Instance.RestoreState(b); err != nil {
		return err
	}
	return i.Instance.RestoreState(otr.Algorithm{}.NewInstance(0, 3, i.X()).(*otr.Instance).AppendState(nil))
}

func TestSweepFindsIntegrityAndIrrevocabilityViolations(t *testing.T) {
	forgets := broken(func(i *otr.Instance) core.Instance { return amnesiac{i} })
	for _, tc := range []struct {
		s    hosweep.Sweep
		want string
	}{
		{hosweep.Sweep{Alg: broken(func(i *otr.Instance) core.Instance { return offByTwo{i} })},
			"integrity: inputs [0 1 1] round 2: p0 decided 3, nobody's input"},
		{hosweep.Sweep{Alg: forgets, Restarts: true},
			"irrevocability: inputs [0 1 1] round 3: p2 decided 1, then Decided() = (0, false)"},
		{hosweep.Sweep{Alg: forgets}, "<nil>"}, // only wrong across a restart
	} {
		tc.s.Inputs, tc.s.Period = []core.Value{0, 1, 1}, 1
		for run := 0; run < 2; run++ { // the same violation every time
			res, err := tc.s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Violation); got != tc.want {
				t.Errorf("got %s\nwant %s", got, tc.want)
			}
		}
	}
}
