package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/otr"
	"heardof/internal/predimpl"
	"heardof/internal/rsm"
	"heardof/internal/shard"
	"heardof/internal/sweep"
)

// The simulator workloads are fixed-size jobs: the same job is run again
// and again for the measuring time, every repeat must reproduce the first
// one's counts exactly, and the metrics are medians over the repeats
// (ops_per_s, cpu_ms_per_op) and over every op (op_p50_ms).

// simCounts are a job's deterministic outputs, by metric name.
type simCounts map[string]float64

// simJob is one fixed-size simulator job.
type simJob struct {
	workload string
	unit     string // what one "op" is
	ops      int    // ops per job
	// run executes the job with the given worker count and returns each
	// op's wall time and the job's counts.
	run func(workers int) (opNs []int64, counts simCounts, err error)
}

const simSetups = 3

// simCost is what one repeat of a job cost the process.
type simCost struct{ cpuNs, mallocs float64 }

// runSim is both passes of a simulator workload.
func (e *env) runSim(job simJob, traced bool, window time.Duration) (*passResult, simCost, error) {
	res := newPassResult(job.workload, traced)
	var first simCounts
	check := func(counts simCounts) {
		if first == nil {
			first = counts
			return
		}
		for _, d := range perLayer { // registry order: deterministic reports
			if want, ok := first[d.Name]; ok && counts[d.Name] != want {
				res.problem("count %s did not repeat: %v, first run %v", d.Name, counts[d.Name], want)
			}
		}
	}

	// Set-up: the job cold, from nothing to its first checked result.
	var setups []float64
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		_, counts, err := job.run(0)
		if err != nil {
			return nil, simCost{}, err
		}
		check(counts)
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += job.ops
	}

	var walls, cpus []float64 // per repeat: wall seconds, user-CPU ms per op
	var opNs []int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := selfCPU().user, time.Now()
	for len(walls) == 0 || time.Since(t0) < window {
		c0, j0 := selfCPU().user, time.Now()
		ns, counts, err := job.run(0)
		if err != nil {
			return nil, simCost{}, err
		}
		check(counts)
		walls = append(walls, time.Since(j0).Seconds())
		cpus = append(cpus, float64(selfCPU().user-c0)/1e6/float64(job.ops))
		opNs = append(opNs, ns...)
		res.Attempted += job.ops
	}
	cpu := selfCPU().user - cpu0
	runtime.ReadMemStats(&ms1)
	res.note("fixed-size job: %d %ss, repeated %d times in the window (plus %d cold set-up runs); every repeat's counts matched the first",
		job.ops, job.unit, len(walls), simSetups)

	m := res.Metrics
	if !traced {
		sorted := sortedCopy(opNs)
		m["ops_per_s"] = ratio(float64(job.ops), medianOf(walls))
		m["op_p50_ms"] = float64(percentile(sorted, 0.50)) / 1e6
		m["setup_s"] = medianOf(setups)
		res.Spread["ops_per_s"] = spreadOf(walls)
		res.note("one op is one %s; ops_per_s is the job's ops over the median repeat's wall time (%.4f s), op_p50_ms the median op's wall time (%d samples, p99 %.3f ms); setup_s is the job cold, start to first checked result, median of %d",
			job.unit, medianOf(walls), len(sorted), float64(percentile(sorted, 0.99))/1e6, simSetups)
		return res, simCost{}, nil
	}
	m["cpu_ms_per_op"] = medianOf(cpus)
	for name, v := range first {
		m[name] = v
	}
	repeats := float64(len(walls))
	return res, simCost{cpuNs: float64(cpu) / repeats, mallocs: float64(ms1.Mallocs-ms0.Mallocs) / repeats}, nil
}

// ---------------------------------------------------------------------
// sim_predimpl

const (
	predimplSeeds = 1024
	predimplN     = 10
	predimplF     = 3
)

// predimplJob is the paper's own construction — Algorithm 3 under the
// Algorithm 4 translation under OneThirdRule, on simtime — swept over a
// fixed seed range through sweep.Engine. Every seed must decide within
// the §4.2.2(c) bound.
func predimplJob(seed uint64, seeds int) simJob {
	return simJob{workload: "sim_predimpl", unit: "seed", ops: seeds,
		run: func(workers int) ([]int64, simCounts, error) {
			cells := make([]sweep.Cell, seeds)
			for i := range cells {
				exp := predimpl.FullStackExperiment{N: predimplN, F: predimplF, Phi: 1, Delta: 5, TG: 150,
					Seed: seed + uint64(i), OutsidersDown: true}
				cells[i] = sweep.Cell{Label: fmt.Sprint("seed=", exp.Seed), Run: func(context.Context) (any, error) { return exp.Run() }}
			}
			results, err := (&sweep.Engine{Workers: workers}).Run(context.Background(), cells)
			if err != nil {
				return nil, nil, err
			}
			counts := simCounts{}
			opNs := make([]int64, 0, seeds)
			for _, r := range results {
				if r.Err != nil || !r.Completed {
					return nil, nil, fmt.Errorf("sim_predimpl %s: %v", r.Label, r.Err)
				}
				fs := r.Value.(predimpl.FullStackResult)
				if fs.Ratio > 1 {
					return nil, nil, fmt.Errorf("sim_predimpl %s decided at %.3f x the §4.2.2(c) bound", r.Label, fs.Ratio)
				}
				counts["simtime.steps"] += float64(fs.Stats.Steps)
				counts["simtime.messages_sent"] += float64(fs.Stats.MessagesSent)
				counts["predimpl.decision_ratio_max"] = max(counts["predimpl.decision_ratio_max"], fs.Ratio)
				opNs = append(opNs, int64(r.Elapsed))
			}
			return opNs, counts, nil
		}}
}

func (e *env) runSimPredimpl(traced bool, seed uint64, window time.Duration) (*passResult, error) {
	seeds := predimplSeeds
	if e.quick {
		seeds /= 4
	}
	job := predimplJob(seed, seeds)
	res, cost, err := e.runSim(job, traced, window)
	if err != nil || !traced {
		return res, err
	}
	m := res.Metrics
	steps := m["simtime.steps"]
	m["simtime.ns_per_step"] = ratio(cost.cpuNs, steps)
	m["simtime.allocs_per_step"] = ratio(cost.mallocs, steps)
	// A quarter of the seeds on one worker against GOMAXPROCS workers.
	quarter := predimplJob(seed, max(seeds/4, 1))
	timeIt := func(workers int) (float64, error) {
		t0 := time.Now()
		_, _, err := quarter.run(workers)
		return time.Since(t0).Seconds(), err
	}
	one, err := timeIt(1)
	if err != nil {
		return nil, err
	}
	all, err := timeIt(e.gomaxprocs)
	if err != nil {
		return nil, err
	}
	m["sweep.parallel_speedup"] = ratio(one, all)
	return res, nil
}

// ---------------------------------------------------------------------
// sim_rsm

const (
	rsmShards     = 4
	rsmReplicas   = 5
	rsmClients    = 64
	rsmSubJobs    = 10
	rsmSubJobCmds = 20_000
	rsmLoss       = 0.2
)

var rsmEnvs = [rsmShards]string{"good", "loss", "crash", "good"}

// rsmJob is the sharded round-level engine under heterogeneous shard
// environments, hoload's sharded path with its defaults: rsmSubJobs
// closed-loop runs of rsmSubJobCmds commands each.
func rsmJob(seed uint64, subJobs int) simJob {
	return simJob{workload: "sim_rsm", unit: fmt.Sprintf("%d-command run", rsmSubJobCmds), ops: subJobs,
		run: func(workers int) ([]int64, simCounts, error) {
			counts := simCounts{}
			var opNs []int64
			var completed, slots, launched, aborted int
			var totalRounds, wallRounds core.Round
			for j := 0; j < subJobs; j++ {
				t0 := time.Now()
				s := seed + uint64(j)
				providers := func(sh int) func(slot int) core.HOProvider {
					switch rsmEnvs[sh] {
					case "loss":
						return adversary.SlotLoss(rsmLoss, s+uint64(sh)*1000003)
					case "crash":
						return adversary.SlotRotatingCrash(rsmReplicas, 10)
					default:
						return adversary.SlotFull()
					}
				}
				cluster, err := kvstore.NewShardedCluster(shard.Config{Shards: rsmShards, Parallel: workers},
					rsmReplicas, otr.Algorithm{}, providers, 400, rsm.Tuning{BatchSize: 8, Pipeline: 4, Parallel: workers})
				if err != nil {
					return nil, nil, err
				}
				out, err := shard.RunWorkload(cluster.Sharded(), rsm.WorkloadConfig{
					Clients: rsmClients, Rate: 0.7, WriteRatio: 0.75, Keys: 48, Dist: rsm.Zipfian, ZipfS: 0.99,
					Ops: rsmSubJobCmds, MaxSlots: 20 * rsmSubJobCmds, Seed: s,
				}, kvstore.WorkloadCommand, kvstore.WorkloadRouteKey)
				if err != nil {
					return nil, nil, fmt.Errorf("sim_rsm seed %d: %w", s, err)
				}
				if out.Aggregate.Completed != rsmSubJobCmds {
					return nil, nil, fmt.Errorf("sim_rsm seed %d committed %d of %d commands", s, out.Aggregate.Completed, rsmSubJobCmds)
				}
				if !cluster.Converged() {
					return nil, nil, fmt.Errorf("sim_rsm seed %d: a shard's replicas diverged", s)
				}
				st := cluster.Stats()
				completed += out.Aggregate.Completed
				slots += out.Aggregate.Slots
				launched += st.Launched
				aborted += st.Aborted
				totalRounds += out.Aggregate.TotalRounds
				wallRounds += out.Aggregate.WallRounds
				opNs = append(opNs, int64(time.Since(t0)))
			}
			counts["rsm.slots_per_cmd"] = ratio(float64(slots), float64(completed))
			counts["rsm.cmds_per_round"] = ratio(float64(completed), float64(wallRounds))
			counts["rsm.total_rounds"] = float64(totalRounds)
			counts["rsm.aborted_frac"] = ratio(float64(aborted), float64(launched))
			counts["shard.wall_rounds"] = float64(wallRounds)
			return opNs, counts, nil
		}}
}

func (e *env) runSimRsm(traced bool, seed uint64, window time.Duration) (*passResult, error) {
	subJobs := rsmSubJobs
	if e.quick {
		subJobs = 2
	}
	res, cost, err := e.runSim(rsmJob(seed, subJobs), traced, window)
	if err != nil || !traced {
		return res, err
	}
	m := res.Metrics
	cmds := float64(subJobs * rsmSubJobCmds)
	m["rsm.ns_per_cmd"] = ratio(cost.cpuNs, cmds)
	m["rsm.allocs_per_cmd"] = ratio(cost.mallocs, cmds)
	return res, nil
}
