// The -live mode: small-scope model checking of the live replica
// protocol (internal/modelcheck over live.ReplicaCore), plus the
// seeded-mutant regression probes. Exit status is the verdict: 0 means
// the explored scope is clean (or every requested mutant was killed),
// 1 means a safety violation was found or a mutant survived.

package main

import (
	"fmt"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/modelcheck"
	"heardof/internal/otr"
)

// liveFlags carries the -live mode's command-line configuration.
type liveFlags struct {
	n        int
	slots    uint64
	rounds   int
	crash    int
	recover  int
	states   int
	maxBatch int
	alg      string
	mutant   string
}

// errVerdict marks a checker verdict (violation or surviving mutant):
// reported without the "hocheck:" error prefix, exit status 1.
type errVerdict struct{ msg string }

func (e errVerdict) Error() string { return e.msg }

// runLive dispatches the -live mode: mutant probes when -mutant is
// given, otherwise an exploration of the configured scope.
func runLive(f liveFlags) error {
	if f.mutant != "" {
		return runMutants(f)
	}
	return runExplore(f)
}

// runExplore model-checks the unmutated protocol at the flag scope.
func runExplore(f liveFlags) error {
	m := modelcheck.ReplicaModel{
		N:              f.n,
		Slots:          f.slots,
		MaxRound:       core.Round(f.rounds),
		CrashBudget:    f.crash,
		RecoveryBudget: f.recover,
		MaxStates:      f.states,
		MaxBatch:       f.maxBatch,
	}
	switch f.alg {
	case "otr":
		m.Algorithm, m.Msg = otr.Algorithm{}, otr.WireCodec{}
	case "lastvoting":
		m.Algorithm, m.Msg = lastvoting.Algorithm{}, lastvoting.WireCodec{}
	default:
		return fmt.Errorf("unknown -alg %q (want otr or lastvoting)", f.alg)
	}
	// One proposer, one submission per slot: with MaxBatch 1 each
	// submission rides its own slot, and unanimous proposals let OTR
	// decide at the MaxRound=2 scope (see internal/modelcheck).
	for s := uint64(1); s <= f.slots; s++ {
		m.Workload = append(m.Workload, modelcheck.Submission{
			Replica: 0, Client: s, Seq: 1, Cmd: byte('a' + s - 1),
		})
	}

	model, err := modelcheck.NewReplicaModel(m)
	if err != nil {
		return err
	}
	fmt.Printf("model: live replica protocol, alg=%s n=%d slots=%d rounds=%d crash=%d recover=%d\n",
		f.alg, f.n, f.slots, f.rounds, f.crash, f.recover)
	res, err := model.Explore()
	if err != nil {
		return err
	}
	closure := "full closure"
	if !res.Complete {
		closure = fmt.Sprintf("bounded at %d states", f.states)
	}
	fmt.Printf("explored: %d states, %d transitions (%s), deepest commit index %d, most slots in flight %d, most round messages held early %d\n",
		res.States, res.Transitions, closure, res.MaxApplied, res.MaxOpen, res.MaxHeld)
	for _, fd := range res.Findings {
		fmt.Printf("finding: %s (%d states): %s\n", fd.Kind, fd.Count, fd.Message)
	}
	if res.Violation != nil {
		return errVerdict{fmt.Sprintf("SAFETY VIOLATION [%s]: %s", res.Violation.Kind, res.Violation.Message)}
	}
	fmt.Println("safety: no reachable violation (agreement, integrity, apply-once, session order, commit monotonicity, batch GC, decided ⇒ held)")
	return nil
}

// mutantProbe pairs a probe with the outcome that counts as a kill.
type mutantProbe struct {
	name string
	// run executes the scripted schedule; enabled seeds the bug.
	run func(enabled bool) modelcheck.ProbeResult
	// killed reports whether the mutated run was flagged the right way.
	killed func(modelcheck.ProbeResult) bool
	// what the mutant reintroduces, for the report.
	desc string
}

var mutantProbes = []mutantProbe{
	{
		name: "locked-vote",
		run:  modelcheck.CheckFreshRetry,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "agreement"
		},
		desc: "fresh-instance slot retry discarding LastVoting's locked vote (split decision)",
	},
	{
		name: "drift-livelock",
		run:  modelcheck.CheckDrift,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation == nil && hasFinding(r, "drift-livelock")
		},
		desc: "jump rule removed: lockstep survivors drift one round apart forever",
	},
	{
		name: "stall-window",
		run:  modelcheck.CheckStall,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "decided-unheld" && hasFinding(r, "stall-window")
		},
		desc: "round messages and decision pushes stripped of their batches, then a proposer crash, strand a decided batch",
	},
	{
		name: "forget-vote",
		run:  modelcheck.CheckForgetVote,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "agreement"
		},
		desc: "crash recovery discarding the persisted locked vote (split decision)",
	},
	{
		name: "ts-regress",
		run:  modelcheck.CheckTSRegress,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "agreement"
		},
		desc: "crash recovery discarding the round saved with the vote: an old vote re-adopted below the lock in a re-run round (lock undone)",
	},
	{
		name: "relive-ack",
		run:  modelcheck.CheckReliveAck,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "agreement"
		},
		desc: "crash recovery discarding the round saved with the vote: a phase acked in a re-run round, behind the replica's own later estimate (unlocked value decided)",
	},
	{
		name: "merge-skip",
		run:  modelcheck.CheckMergeSkip,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "session-gap"
		},
		desc: "proposal merge dropping a source's first unapplied command (lost command)",
	},
	{
		name: "window-disjoint",
		run:  modelcheck.CheckWindowDisjoint,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "session-gap"
		},
		desc: "open slots proposing disjoint chunks instead of overlapping batches (lost command)",
	},
	{
		name: "prune-open",
		run:  modelcheck.CheckPruneOpen,
		killed: func(r modelcheck.ProbeResult) bool {
			return r.Violation != nil && r.Violation.Kind == "decided-unheld"
		},
		desc: "pruning a fully applied proposal whose slot is still open (its coordinator decides an id it no longer holds)",
	},
}

func hasFinding(r modelcheck.ProbeResult, kind string) bool {
	for _, f := range r.Findings {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// runMutants runs the requested probes. A mutant counts as killed only
// when the seeded run is flagged AND the identical unmutated control
// schedule is clean — a probe failing its control proves nothing.
func runMutants(f liveFlags) error {
	var selected []mutantProbe
	for _, p := range mutantProbes {
		if f.mutant == "all" || f.mutant == p.name {
			selected = append(selected, p)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -mutant %q (want locked-vote, drift-livelock, stall-window, forget-vote, ts-regress, relive-ack, merge-skip, window-disjoint, prune-open, or all)", f.mutant)
	}
	survived := 0
	for _, p := range selected {
		mutated := p.run(true)
		control := p.run(false)
		switch {
		case !p.killed(mutated):
			survived++
			fmt.Printf("mutant %-14s SURVIVED: checker did not flag it (%s)\n", p.name, p.desc)
		case control.Flagged():
			survived++
			fmt.Printf("mutant %-14s INVALID: control run flagged too (violation=%v findings=%v)\n",
				p.name, control.Violation, control.Findings)
		default:
			verdict := "finding"
			if mutated.Violation != nil {
				verdict = fmt.Sprintf("violation [%s]", mutated.Violation.Kind)
			}
			fmt.Printf("mutant %-14s killed (%s; control clean) — %s\n", p.name, verdict, p.desc)
		}
	}
	if survived > 0 {
		return errVerdict{fmt.Sprintf("%d of %d mutants survived", survived, len(selected))}
	}
	fmt.Printf("all %d mutants killed\n", len(selected))
	return nil
}
