package experiments

import (
	"context"
	"fmt"
	"sort"

	"heardof/internal/acr"
	"heardof/internal/core"
	"heardof/internal/ctcs"
	"heardof/internal/fd"
	"heardof/internal/otr"
	"heardof/internal/predimpl"
	"heardof/internal/runtime"
	"heardof/internal/simtime"
	"heardof/internal/stable"
	"heardof/internal/sweep"
)

// hoCrashScenario runs the OTR∘Alg2 stack under a crash schedule and
// returns (decided members OK, last decision time, stable writes).
func hoCrashScenario(n int, crashes []simtime.CrashEvent, members core.PIDSet,
	periods []simtime.Period, seed uint64) (bool, float64, int64, error) {
	initial := make([]core.Value, n)
	for i := range initial {
		initial[i] = core.Value(i%3 + 1)
	}
	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   initial,
		Sim: simtime.Config{
			N: n, Phi: 1, Delta: 5,
			Periods: periods, Crashes: crashes, Seed: seed,
		},
	})
	if err != nil {
		return false, 0, 0, err
	}
	last := stack.RunUntilAllDecided(members, 5000)
	if serr := stack.Trace().CheckConsensusSafety(); serr != nil {
		return false, 0, 0, serr
	}
	return last >= 0, last, stack.Stores.TotalWrites(), nil
}

// E8Uniformity contrasts the paper's uniformity claim (§2.1/§3.3): the
// identical HO stack handles crash-stop AND crash-recovery, while the FD
// world needs two different algorithms (Chandra–Toueg for crash-stop,
// Aguilera et al. for crash-recovery) — and the crash-stop one is unsound
// under recovery. One cell per scenario row.
func (r *Runner) E8Uniformity(ctx context.Context) *Table {
	t := &Table{
		ID:    "E8",
		Title: "§2.1/§3.3 — one HO stack vs two FD algorithms across crash models",
		Header: []string{
			"system", "fault model", "algorithm change needed", "all decide", "decision time", "stable writes",
		},
	}
	seed := r.cfg.Seed
	n := 7
	survivors := core.SetOf(0, 1, 2, 3, 4)
	csCrashes := []simtime.CrashEvent{{P: 5, At: 3, RecoverAt: -1}, {P: 6, At: 5, RecoverAt: -1}}
	csPeriods := []simtime.Period{{Start: 0, Kind: simtime.GoodDown, Pi0: survivors}}
	crCrashes := []simtime.CrashEvent{
		{P: 0, At: 10, RecoverAt: 60}, {P: 3, At: 30, RecoverAt: 90}, {P: 6, At: 55, RecoverAt: 130},
	}
	crPeriods := []simtime.Period{
		{Start: 0, Kind: simtime.Bad},
		{Start: 140, Kind: simtime.GoodDown, Pi0: core.FullSet(n)},
	}
	// §2.1's point for the naive CT reboot: process 0 is down while the
	// others decide; after its reboot it restarts from round 1, nobody
	// answers rounds that are long gone (CT has no decide-reply rule),
	// and it blocks forever.
	recoverySchedule := []runtime.CrashEvent{{P: 0, At: 2, RecoverAt: 60}}

	cells := []sweep.Cell{
		rowCell("E8/HO/crash-stop", func() (tableOp, error) {
			ok, at, writes, err := hoCrashScenario(n, csCrashes, survivors, csPeriods, seed)
			if err != nil {
				return nil, err
			}
			return func(t *Table) {
				t.AddRow("HO stack (OTR∘Alg2)", "crash-stop (SP)", "no", ok, at, writes)
			}, nil
		}),
		rowCell("E8/HO/crash-recovery", func() (tableOp, error) {
			ok, at, writes, err := hoCrashScenario(n, crCrashes, core.FullSet(n), crPeriods, seed)
			if err != nil {
				return nil, err
			}
			return func(t *Table) {
				t.AddRow("HO stack (OTR∘Alg2)", "crash-recovery (DT)", "no", ok, at, writes)
			}, nil
		}),
		rowCell("E8/CT/crash-stop", func() (tableOp, error) {
			ok, at := runCT(5, []runtime.CrashEvent{{P: 4, At: 1, RecoverAt: -1}}, 0, 0, seed)
			return func(t *Table) {
				t.AddRow("Chandra–Toueg ◇S", "crash-stop (SP)", "—", ok, at, 0)
			}, nil
		}),
		rowCell("E8/CT/crash-recovery", func() (tableOp, error) {
			ok, at := runCT(5, recoverySchedule, 0, 0, seed+1)
			return func(t *Table) {
				t.AddRow("Chandra–Toueg ◇S", "crash-recovery", "yes — naive reboot blocks", ok, at, 0)
			}, nil
		}),
		rowCell("E8/ACR/crash-recovery", func() (tableOp, error) {
			// Aguilera et al. ◇Su on the same schedule: the recoverer
			// learns the decision through retransmission + the
			// reply-with-DECIDE rule.
			ok, at, writes := runACR(5, recoverySchedule, seed)
			return func(t *Table) {
				t.AddRow("Aguilera et al. ◇Su", "crash-recovery", "yes — different algorithm+FD", ok, at, writes)
			}, nil
		}),
	}
	r.sweepInto(ctx, t, cells)
	t.Notes = append(t.Notes,
		"the HO rows run byte-identical code in both fault models; the FD rows need two algorithms (5 message kinds, 6 stable keys, retransmission and round-skipping tasks in the crash-recovery one)",
	)
	return t
}

func runCT(n int, crashes []runtime.CrashEvent, loss float64, gst runtime.Time, seed uint64) (bool, float64) {
	nodes := make([]*ctcs.Node, n)
	sim, err := runtime.New(runtime.Config{
		N: n, MinDelay: 0.5, MaxDelay: 1,
		LossProb: loss, GST: gst, StableLossProb: loss,
		Crashes: crashes, Seed: seed,
	}, func(p runtime.NodeID) runtime.Handler {
		nodes[p] = ctcs.NewNodeDeferred(n, core.Value(int(p)%3+1), 2)
		return nodes[p]
	})
	if err != nil {
		return false, 0
	}
	det := fd.NewEventuallyStrong(sim, gst, seed^0x5)
	for _, nd := range nodes {
		nd.SetDetector(det)
	}
	// "Everyone decided" may only be judged once all scheduled recoveries
	// have happened — a node that is down is not a node that decided.
	var lastRecovery runtime.Time
	for _, ce := range crashes {
		if ce.RecoverAt > lastRecovery {
			lastRecovery = ce.RecoverAt
		}
	}
	sim.RunUntilTime(lastRecovery)
	allUpDecided := func() bool {
		for p, nd := range nodes {
			if sim.CrashedForever(runtime.NodeID(p)) {
				continue
			}
			if !sim.Up(runtime.NodeID(p)) {
				return false
			}
			if _, ok := nd.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if !sim.RunUntil(allUpDecided, lastRecovery+600) {
		return false, -1
	}
	return true, sim.Now()
}

func runACR(n int, crashes []runtime.CrashEvent, seed uint64) (bool, float64, int64) {
	nodes := make([]*acr.Node, n)
	stores := stable.NewRegistry()
	sim, err := runtime.New(runtime.Config{
		N: n, MinDelay: 0.5, MaxDelay: 1,
		LossProb: 0.2, GST: 40, Crashes: crashes, Seed: seed,
	}, func(p runtime.NodeID) runtime.Handler {
		nodes[p] = acr.NewNodeDeferred(n, core.Value(int(p)%3+1), stores.For(int(p)), 2, 3)
		return nodes[p]
	})
	if err != nil {
		return false, 0, 0
	}
	det := fd.NewEventuallySu(sim, 40, seed^0xA)
	for _, nd := range nodes {
		nd.SetDetector(det)
	}
	all := func() bool {
		for _, nd := range nodes {
			if _, ok := nd.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if !sim.RunUntil(all, 3000) {
		return false, -1, stores.TotalWrites()
	}
	return true, sim.Now(), stores.TotalWrites()
}

// e9run is one (system, loss, seed) decision attempt.
type e9run struct {
	ok bool
	at float64
}

// E9LossSweep compares decision success under sustained message loss:
// Chandra–Toueg (with a PERFECT failure detector, isolating the link
// assumption) against the HO stack, for which loss is just a transmission
// fault. This is footnote 2 of the paper made empirical. One cell per
// (loss, seed, system) — 240 independent simulations aggregated in cell
// order.
func (r *Runner) E9LossSweep(ctx context.Context) *Table {
	t := &Table{
		ID:    "E9",
		Title: "footnote 2 — decision success under sustained message loss (20 seeds each)",
		Header: []string{
			"loss", "CT-◇S decided", "CT median time", "HO stack decided", "HO median time",
		},
	}
	const runs = 20
	n := 5
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	var cells []sweep.Cell
	for _, loss := range losses {
		for s := uint64(0); s < runs; s++ {
			cells = append(cells,
				sweep.Cell{
					Label: fmt.Sprintf("E9/loss=%v/ct/seed=%d", loss, s),
					Run: func(context.Context) (any, error) {
						ok, at := runCT(n, nil, loss, 0, r.cfg.Seed+s)
						return e9run{ok, at}, nil
					},
				},
				sweep.Cell{
					Label: fmt.Sprintf("E9/loss=%v/ho/seed=%d", loss, s),
					Run: func(context.Context) (any, error) {
						ok, at := runHOUnderLoss(n, loss, r.cfg.Seed+s)
						return e9run{ok, at}, nil
					},
				})
		}
	}
	results := r.runCells(ctx, t, cells)
	for li, loss := range losses {
		// Denominators count only cells that actually produced a result:
		// a timed-out or cancelled cell must not masquerade as a
		// decision failure (that distinction is the whole table).
		ctDecided, ctTotal, ctTimes := 0, 0, []float64{}
		hoDecided, hoTotal, hoTimes := 0, 0, []float64{}
		for s := 0; s < runs; s++ {
			base := (li*runs + s) * 2
			if run, ok := results[base].Value.(e9run); ok {
				ctTotal++
				if run.ok {
					ctDecided++
					ctTimes = append(ctTimes, run.at)
				}
			}
			if run, ok := results[base+1].Value.(e9run); ok {
				hoTotal++
				if run.ok {
					hoDecided++
					hoTimes = append(hoTimes, run.at)
				}
			}
		}
		t.AddRow(loss,
			fmt.Sprintf("%d/%d", ctDecided, ctTotal), median(ctTimes),
			fmt.Sprintf("%d/%d", hoDecided, hoTotal), median(hoTimes))
	}
	t.Notes = append(t.Notes,
		"CT runs with a perfect detector from time 0 and loss applied forever: every decided run needed all its wait-untils to dodge loss; the decided fraction collapses as loss grows",
		"the HO stack treats each lost message as a transmission fault and simply takes more rounds")
	return t
}

// runHOUnderLoss runs OTR∘Alg2 in a permanently lossy-but-timely
// environment (synchronous steps, iid loss).
func runHOUnderLoss(n int, loss float64, seed uint64) (bool, float64) {
	initial := make([]core.Value, n)
	for i := range initial {
		initial[i] = core.Value(i%3 + 1)
	}
	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   initial,
		Sim: simtime.Config{
			N: n, Phi: 1, Delta: 5,
			Periods: []simtime.Period{{Start: 0, Kind: simtime.Bad}},
			Bad: simtime.BadConfig{
				LossProb: loss,
				MinDelay: 2.5, MaxDelay: 5,
				MinGap: 1, MaxGap: 1,
			},
			Seed: seed,
		},
	})
	if err != nil {
		return false, 0
	}
	last := stack.RunUntilAllDecided(core.FullSet(n), 20000)
	if stack.Trace().CheckConsensusSafety() != nil {
		return false, -1
	}
	return last >= 0, last
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// Ablations quantifies the DESIGN.md §5 design-choice ablations. One cell
// per ablation; each cell runs its baseline and its ablated variant
// back-to-back because the ablated horizon depends on the baseline bound.
func (r *Runner) Ablations(ctx context.Context) *Table {
	t := &Table{
		ID:     "EA",
		Title:  "ablations — why the paper's design choices matter",
		Header: []string{"ablation", "paper elapsed", "ablated elapsed", "effect"},
	}
	seed := r.cfg.Seed

	fifoBase := predimpl.GoodPeriodExperiment{
		Kind: predimpl.UseAlg2, N: 7, Phi: 1, Delta: 10, X: 2, TG: 300, Seed: seed + 11,
	}
	// A lossless, slow bad period leaves deep buffers of stale messages
	// at tG — exactly the backlog the highest-round-first policy exists
	// to cut through.
	backlog := &simtime.BadConfig{
		LossProb: 0, MinDelay: 1, MaxDelay: 40, MinGap: 0.5, MaxGap: 2,
	}

	quorumBase := predimpl.GoodPeriodExperiment{
		Kind: predimpl.UseAlg3, N: 5, F: 1, Phi: 1, Delta: 5, X: 3, TG: 0, Seed: seed + 13,
	}
	fast := &simtime.BadConfig{LossProb: 0, MinDelay: 1, MaxDelay: 5, MinGap: 0.05, MaxGap: 0.15}

	catchupBase := predimpl.GoodPeriodExperiment{
		Kind: predimpl.UseAlg3, N: 5, F: 2, Phi: 1, Delta: 5, X: 2, TG: 400, Seed: seed + 17,
	}

	cells := []sweep.Cell{
		ablationCell("Alg2 reception policy → FIFO", fifoBase,
			&predimpl.Ablation{Alg2Policy: simtime.FIFO{}}, backlog),
		ablationCell("Alg3 INIT quorum f+1 → 1 (racing outsider)", quorumBase,
			&predimpl.Ablation{InitQuorum: 1}, fast),
		ablationCell("Alg3 higher-round catch-up → disabled", catchupBase,
			&predimpl.Ablation{DisableCatchup: true}, nil),
	}
	r.sweepInto(ctx, t, cells)
	return t
}

func ablationCell(name string, base predimpl.GoodPeriodExperiment,
	ab *predimpl.Ablation, bad *simtime.BadConfig) sweep.Cell {
	return rowCell("EA/"+name, func() (tableOp, error) {
		base.Bad = bad
		pure, err := base.Run()
		if err != nil {
			return nil, fmt.Errorf("baseline failed: %w", err)
		}
		ablated := base
		ablated.Ablation = ab
		ablated.Horizon = base.TG + 30*pure.Bound
		res, err := ablated.Run()
		if err != nil {
			return func(t *Table) {
				t.AddRow(name, pure.Elapsed, "never (horizon 30×bound)", "predicate broken")
			}, nil
		}
		effect := fmt.Sprintf("%.1f× slower", res.Elapsed/pure.Elapsed)
		if res.Elapsed/pure.Elapsed < 1.05 {
			effect = "≈ none (traffic is self-balancing; the policy pays for the proof's constants)"
		}
		return func(t *Table) {
			t.AddRow(name, pure.Elapsed, res.Elapsed, effect)
		}, nil
	})
}
