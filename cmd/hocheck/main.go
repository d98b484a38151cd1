// Command hocheck evaluates communication predicates against a recorded
// HO trace (JSON, see internal/tracefile). It reports which Table 1
// predicates hold, their witnesses, per-round kernels, and whether the
// trace's decisions satisfy consensus safety.
//
// The -live mode instead model-checks the live replica protocol at a
// small scope (see live.go in this package and internal/modelcheck).
//
// Usage:
//
//	hocheck trace.json
//	hocheck -demo            # generate, print and check a sample trace
//	hocheck -live            # model-check the replica protocol
//	hocheck -live -mutant all  # run the seeded-mutant regression suite
package main

import (
	"flag"
	"fmt"
	"os"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/otr"
	"heardof/internal/predicate"
	"heardof/internal/tracefile"
)

func main() {
	if err := run(); err != nil {
		if v, ok := err.(errVerdict); ok {
			fmt.Fprintln(os.Stderr, v.msg)
		} else {
			fmt.Fprintln(os.Stderr, "hocheck:", err)
		}
		os.Exit(1)
	}
}

func run() error {
	demo := flag.Bool("demo", false, "generate and check a demo trace instead of reading a file")
	liveMode := flag.Bool("live", false, "model-check the live replica protocol instead of a trace")
	lf := liveFlags{}
	flag.IntVar(&lf.n, "n", 3, "live: number of replicas")
	flag.Uint64Var(&lf.slots, "slots", 2, "live: consensus slots to drive (one submission each)")
	flag.IntVar(&lf.rounds, "rounds", 2, "live: per-slot round bound (OTR decides at 2, LastVoting needs 3; 4 adds its decide round)")
	flag.IntVar(&lf.crash, "crash", 1, "live: crash-stop budget")
	flag.IntVar(&lf.recover, "recover", 0, "live: crash-recovery budget (reboot a replica from its write-ahead state)")
	flag.IntVar(&lf.states, "states", 150_000, "live: state budget (0 = the 2M default)")
	flag.IntVar(&lf.maxBatch, "maxbatch", 1, "live: max entries per batch (0 = core default)")
	flag.StringVar(&lf.alg, "alg", "otr", "live: consensus algorithm (otr or lastvoting)")
	flag.StringVar(&lf.mutant, "mutant", "", "live: run seeded-mutant probes ("+mutantNames()+")")
	flag.Parse()

	if *liveMode {
		return runLive(lf)
	}

	var tr *core.Trace
	switch {
	case *demo:
		var err error
		if tr, err = demoTrace(); err != nil {
			return err
		}
		data, err := tracefile.Encode(tr)
		if err != nil {
			return err
		}
		fmt.Printf("demo trace:\n%s\n\n", data)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		if tr, err = tracefile.Decode(data); err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: hocheck <trace.json> | hocheck -demo")
	}

	fmt.Printf("trace: n=%d, %d rounds, %d decided\n", tr.N, tr.NumRounds(), tr.DecidedSet().Len())

	fmt.Println("\npredicates:")
	checks := []predicate.Predicate{
		predicate.Potr{},
		predicate.PrestrOtr{},
		predicate.MajorityEveryRound(tr.N),
		predicate.NonEmptyKernels{},
		predicate.UniformRoundExists{},
	}
	for _, p := range checks {
		fmt.Printf("  %-22s %v\n", p.Name(), p.Holds(tr))
	}
	if r0, pi0, ok := predicate.FindPotrWitness(tr); ok {
		fmt.Printf("  Potr witness: r0=%d Π0=%v\n", r0, pi0)
	}
	if r0, pi0, ok := predicate.FindPrestrOtrWitness(tr); ok {
		fmt.Printf("  PrestrOtr witness: r0=%d Π0=%v\n", r0, pi0)
	}

	fmt.Println("\nper-round kernels:")
	all := core.FullSet(tr.N)
	for r := core.Round(1); r <= tr.NumRounds(); r++ {
		fmt.Printf("  round %-3d kernel %v\n", r, tr.Kernel(r, all))
	}

	if err := tr.CheckConsensusSafety(); err != nil {
		return fmt.Errorf("SAFETY VIOLATION: %w", err)
	}
	fmt.Println("\nsafety: agreement and integrity hold")
	return nil
}

// demoTrace runs OneThirdRule under a Potr-realizing adversary.
func demoTrace() (*core.Trace, error) {
	n := 5
	initial := []core.Value{3, 1, 4, 1, 5}
	prov := adversary.ScriptedPotr{R0: 3, Pi0: core.FullSet(n)}
	ru, err := core.NewRunner(otr.Algorithm{}, initial, prov)
	if err != nil {
		return nil, err
	}
	tr, _ := ru.Run(12)
	return tr, nil
}
