package experiments

import (
	"context"
	"fmt"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/otr"
	"heardof/internal/predicate"
	"heardof/internal/sweep"
	"heardof/internal/translation"
	"heardof/internal/xrand"
)

// e7counts aggregates one chunk of randomized runs.
type e7counts struct {
	runs       int
	violations int
	decided    int // -1 marks a safety-only chunk with no liveness claim
}

// e7block builds the cells for one check: total runs split into chunks of
// chunk runs each, every chunk owning an RNG forked deterministically from
// the block's base stream (forks happen at build time, in cell order, so
// chunk streams never depend on scheduling).
func e7block(label string, base *xrand.Rand, total, chunk int,
	one func(rng *xrand.Rand, c *e7counts)) []sweep.Cell {
	var cells []sweep.Cell
	for start := 0; start < total; start += chunk {
		size := chunk
		if start+size > total {
			size = total - start
		}
		rng := base.Fork()
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("%s/%d-%d", label, start, start+size-1),
			Run: func(context.Context) (any, error) {
				c := e7counts{runs: size}
				for i := 0; i < size; i++ {
					one(rng, &c)
				}
				return c, nil
			},
		})
	}
	return cells
}

// E7SafetyAndLiveness checks the correctness theorems statistically:
// Theorem 1 (OTR + P_otr solves consensus), Theorem 2 (restricted scope),
// unconditional safety of OTR under arbitrary heard-of sets, and the
// Theorem 8 translation guarantee. Each check fans out as a block of
// chunked cells; one row per block sums its chunks in cell order.
func (r *Runner) E7SafetyAndLiveness(ctx context.Context) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Theorems 1, 2, 8 — randomized correctness checks",
		Header: []string{"check", "runs", "safety violations", "liveness successes"},
	}
	rng := xrand.New(r.cfg.Seed)

	// Safety fuzz: arbitrary adversaries, no liveness expected.
	const fuzzRuns = 3000
	fuzz := e7block("E7/safety-fuzz", rng, fuzzRuns, 150, func(rng *xrand.Rand, c *e7counts) {
		c.decided = -1
		n := 2 + rng.Intn(7)
		initial := make([]core.Value, n)
		for k := range initial {
			initial[k] = core.Value(rng.Intn(4))
		}
		prov := &adversary.Arbitrary{RNG: rng.Fork(), EmptyBias: 0.2}
		ru, err := core.NewRunner(otr.Algorithm{}, initial, prov)
		if err != nil {
			return
		}
		ru.RunRounds(25)
		if ru.Trace().CheckConsensusSafety() != nil {
			c.violations++
		}
	})

	// Theorem 1 liveness: Potr-realizing adversaries. Termination is what
	// Theorem 1 promises; runs that decide early (during the lossy
	// prefix) terminate before the Potr witness round and still count.
	const liveRuns = 500
	thm1 := e7block("E7/theorem1", rng, liveRuns, 50, func(rng *xrand.Rand, c *e7counts) {
		n := 2 + rng.Intn(7)
		initial := make([]core.Value, n)
		for k := range initial {
			initial[k] = core.Value(rng.Intn(4))
		}
		prov := adversary.ScriptedPotr{
			R0:     core.Round(2 + rng.Intn(5)),
			Pi0:    core.FullSet(n),
			Before: &adversary.TransmissionLoss{Rate: 0.7, RNG: rng.Fork()},
		}
		ru, err := core.NewRunner(otr.Algorithm{}, initial, prov)
		if err != nil {
			return
		}
		tr, runErr := ru.Run(40)
		if tr.CheckConsensusSafety() != nil {
			c.violations++
		}
		if runErr == nil {
			c.decided++
		}
		_ = predicate.Potr{}
	})

	// Theorem 2: restricted scope — Π0 decides.
	const restrRuns = 300
	thm2 := e7block("E7/theorem2", rng, restrRuns, 50, func(rng *xrand.Rand, c *e7counts) {
		n := 4 + rng.Intn(5)
		k := 2*n/3 + 1 // |Π0| > 2n/3
		pi0 := core.FullSet(k)
		initial := make([]core.Value, n)
		for j := range initial {
			initial[j] = core.Value(rng.Intn(4))
		}
		prov := adversary.SpaceUniformRounds{Pi0: pi0, From: 2, To: 50}
		ru, err := core.NewRunner(otr.Algorithm{}, initial, prov)
		if err != nil {
			return
		}
		ru.RunRounds(10)
		tr := ru.Trace()
		if tr.CheckConsensusSafety() != nil {
			c.violations++
		}
		if tr.DecidedSet().Contains(pi0) {
			c.decided++
		}
	})

	// Theorem 8: translation consensus under kernel-only rounds.
	const trRuns = 200
	thm8 := e7block("E7/theorem8", rng, trRuns, 25, func(rng *xrand.Rand, c *e7counts) {
		n := 4 + rng.Intn(6)
		f := (n - 1) / 3 // keep |Π0| > 2n/3
		if f < 1 {
			f = 1
			n = 4
		}
		pi0 := core.FullSet(n - f)
		alg := translation.Algorithm{Inner: otr.Algorithm{}, F: f}
		initial := make([]core.Value, n)
		for j := range initial {
			initial[j] = core.Value(rng.Intn(4))
		}
		prov := adversary.KernelRounds{Pi0: pi0, From: 1, To: 1000, RNG: rng.Fork()}
		ru, err := core.NewRunner(alg, initial, prov)
		if err != nil {
			return
		}
		ru.RunRounds(core.Round(8 * (f + 1)))
		tr := ru.Trace()
		if tr.CheckConsensusSafety() != nil {
			c.violations++
		}
		if tr.DecidedSet().Contains(pi0) {
			c.decided++
		}
	})

	blocks := []struct {
		row   string
		cells []sweep.Cell
	}{
		{"OTR safety, arbitrary HO sets", fuzz},
		{"Theorem 1: OTR + Potr terminates", thm1},
		{"Theorem 2: PrestrOtr ⇒ Π0 decides", thm2},
		{"Theorem 8: OTR ∘ translation under Pk", thm8},
	}
	var cells []sweep.Cell
	bounds := make([]int, 0, len(blocks)+1) // block i owns cells[bounds[i]:bounds[i+1]]
	bounds = append(bounds, 0)
	for _, b := range blocks {
		cells = append(cells, b.cells...)
		bounds = append(bounds, len(cells))
	}

	results := r.runCells(ctx, t, cells)
	for i, b := range blocks {
		var sum e7counts
		safetyOnly := false
		for _, res := range results[bounds[i]:bounds[i+1]] {
			c, ok := res.Value.(e7counts)
			if !ok {
				continue // failed/timed-out chunk, already a note
			}
			sum.runs += c.runs
			sum.violations += c.violations
			if c.decided < 0 {
				safetyOnly = true
			} else {
				sum.decided += c.decided
			}
		}
		if safetyOnly {
			t.AddRow(b.row, sum.runs, sum.violations, "n/a")
		} else {
			t.AddRow(b.row, sum.runs, sum.violations, sum.decided)
		}
	}

	t.Notes = append(t.Notes,
		"safety violations must be 0 in every row",
		fmt.Sprintf("liveness successes must equal runs for the Theorem 1/2/8 rows (seed %d)", r.cfg.Seed))
	return t
}
