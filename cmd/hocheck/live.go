// The -live mode: small-scope model checking of the live replica
// protocol (internal/modelcheck over live.ReplicaCore), plus the
// seeded-mutant regression suite. Exit status is the verdict: 0 means
// the explored scope is clean (or every requested mutant was killed),
// 1 means a safety violation was found or a mutant survived.

package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

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
	return explore(os.Stdout, model)
}

// explore runs the soup exploration of a validated model and reports it.
func explore(w io.Writer, model *modelcheck.ReplicaModel) error {
	res, err := model.Explore()
	if err != nil {
		return err
	}
	closure := "full closure"
	switch {
	case res.Violation != nil:
		closure = "stopped at a violation"
	case !res.Complete:
		closure = fmt.Sprintf("bounded at %d states", model.MaxStates)
	}
	fmt.Fprintf(w, "explored: %d states, %d transitions (%s), deepest commit index %d, most slots in flight %d, most round messages held early %d\n",
		res.States, res.Transitions, closure, res.MaxApplied, res.MaxOpen, res.MaxHeld)
	for _, fd := range res.Findings {
		fmt.Fprintf(w, "finding: %s (%d states): %s\n", fd.Kind, fd.Count, fd.Message)
	}
	if res.Violation != nil {
		return errVerdict{fmt.Sprintf("SAFETY VIOLATION [%s]: %s", res.Violation.Kind, res.Violation.Message)}
	}
	fmt.Fprintln(w, "safety: no reachable violation (agreement, integrity, apply-once, session order, commit monotonicity, batch GC, decided ⇒ held)")
	return nil
}

// mutantNames lists the -mutant values.
func mutantNames() string { return strings.Join(modelcheck.Mutants(), ", ") + ", or all" }

// runMutants runs the requested mutants of modelcheck's kill suite. A
// mutant counts as killed only when the seeded run is flagged AND its
// control is clean.
func runMutants(f liveFlags) error {
	names := modelcheck.Mutants()
	if f.mutant != "all" {
		if !slices.Contains(names, f.mutant) {
			return fmt.Errorf("unknown -mutant %q (want %s)", f.mutant, mutantNames())
		}
		names = []string{f.mutant}
	}
	survived := 0
	for _, name := range names {
		report, killed := modelcheck.Kill(name)
		if !killed {
			survived++
		}
		fmt.Printf("mutant %-15s %s\n", name, report)
	}
	if survived > 0 {
		return errVerdict{fmt.Sprintf("%d of %d mutants survived", survived, len(names))}
	}
	fmt.Printf("all %d mutants killed\n", len(names))
	return nil
}
