package main

import (
	"fmt"
	"time"
)

// selfcheck runs the untraced suite twice on the same build and holds the
// benchmark to its own bounds: the second suite's end-to-end metrics may
// not be worse than the first's by more than each metric's bound, and a
// metric whose sub-window spread is wider than its bound is reported as
// unresolved, not as unchanged. Count metrics come from the traced pass
// of the simulator workloads (cheap: their counts do not need tracing)
// and must be identical.
func (e *env) selfcheck(names []string, seed uint64, window time.Duration) (int, error) {
	type suite map[string]*passResult
	suites := [2]suite{{}, {}}
	counts := [2]map[string]metricSet{{}, {}}
	for i := range suites {
		for _, name := range names {
			res, err := e.runPass(name, false, seed, window)
			if err != nil {
				return 1, fmt.Errorf("suite %d, %s: %w", i+1, name, err)
			}
			if _, err := res.print(); err != nil {
				return 1, err
			}
			suites[i][name] = res
			if name == "sim_predimpl" || name == "sim_rsm" {
				traced, err := e.runPass(name, true, seed, min(window, 2*time.Second))
				if err != nil {
					return 1, fmt.Errorf("suite %d, %s counts: %w", i+1, name, err)
				}
				counts[i][name] = traced.Metrics
			}
		}
	}

	failures := 0
	fmt.Printf("\n== selfcheck: suite 2 against suite 1, seed %d\n", seed)
	for _, name := range names {
		a, b := suites[0][name], suites[1][name]
		for _, r := range []*passResult{a, b} {
			if len(r.Problems) > 0 {
				fmt.Printf("  %-14s INCORRECT: %s\n", name, r.Problems[0])
				failures++
			}
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "ok"
			switch {
			case va == 0 || vb == 0:
				verdict = "MISSING"
				failures++
			case max(a.Spread[d.Name], b.Spread[d.Name]) > d.Bound:
				verdict = "unresolved (sub-window spread wider than the bound)"
				failures++
			case worse > d.Bound:
				verdict = "WORSE than the bound"
				failures++
			}
			fmt.Printf("  %-14s %-14s %14.6g -> %14.6g  %+6.1f%% worse, bound %.0f%%: %s\n",
				name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if !d.Count || counts[0][name] == nil {
				continue
			}
			va, ok := counts[0][name][d.Name]
			if !ok {
				continue
			}
			if vb := counts[1][name][d.Name]; va != vb {
				fmt.Printf("  %-14s %-28s count differs: %v vs %v\n", name, d.Name, va, vb)
				failures++
			} else {
				fmt.Printf("  %-14s %-28s count identical: %v\n", name, d.Name, va)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("selfcheck FAILED: %d finding(s)\n", failures)
		return 1, nil
	}
	fmt.Println("selfcheck OK")
	return 0, nil
}
