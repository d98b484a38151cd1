package experiments

import (
	"context"
	"errors"
	"fmt"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/shard"
	"heardof/internal/sweep"
)

// E11 configuration shared by every cell: each shard is an E10-shaped
// group (5 replicas, 8-command batches, 4-deep pipeline). The experiment
// is WEAK scaling: the closed-loop client population and the command
// count grow with the shard count (12 clients and 120 commands per
// shard), so each row offers every shard the same load and the aggregate
// throughput should grow with S — a closed loop with a FIXED population
// cannot scale, because its offered load, not consensus capacity, is the
// binding constraint.
const (
	e11N               = 5
	e11Batch           = 8
	e11Pipeline        = 4
	e11MaxRounds       = 400
	e11ClientsPerShard = 12
	e11OpsPerShard     = 120
	e11Keys            = 96
)

// e11Providers is the mixed per-shard environment: shards cycle through
// good, 30% transmission loss, and rotating crash-recovery — every group
// faces its own fault pattern, which is exactly what per-shard provider
// factories make expressible. With S = 1 the single shard runs good.
func e11Providers(seed uint64) func(s int) func(slot int) core.HOProvider {
	return func(s int) func(slot int) core.HOProvider {
		switch s % 3 {
		case 1:
			return adversary.SlotLoss(0.3, seed+uint64(s)*100003)
		case 2:
			return adversary.SlotRotatingCrash(e11N, 10)
		default:
			return adversary.SlotFull()
		}
	}
}

// E11Sharding measures horizontal scaling of the service layer: the same
// closed-loop workload over S ∈ {1, 2, 4, 8} independent replication
// groups under mixed per-shard fault environments, with uniform and
// skewed (zipfian s=0.99, hash-routed so the hot keys pile onto one
// shard) key popularity. Throughput is aggregate commands per wall
// round, where the wall clock is the run's global one: each closed-loop
// pass costs the slowest active shard's window (shards decide
// concurrently within a pass, passes synchronize the loop) — the cost a
// skewed-hot-shard workload pays is visible as the gap between the
// uniform and zipfian rows at the same S. One cell per row; all numbers
// in simulated rounds, byte-stable across hosts and -parallel.
func (r *Runner) E11Sharding(ctx context.Context) *Table {
	t := &Table{
		ID:    "E11",
		Title: "sharded service — closed-loop scaling over S groups, mixed per-shard environments (n=5/shard, batch 8, pipeline 4)",
		Header: []string{
			"shards", "dist", "cmds", "slots/cmd", "cmds/round",
			"wall rounds", "lat p50", "lat p95", "lat p99", "hot-shard cmds",
		},
	}
	seed := r.cfg.Seed

	type rowSpec struct {
		shards int
		dist   rsm.KeyDist
		off    uint64
	}
	var specs []rowSpec
	for i, s := range []int{1, 2, 4, 8} {
		specs = append(specs,
			rowSpec{s, rsm.Uniform, uint64(1000 + 10*i)},
			rowSpec{s, rsm.Zipfian, uint64(1000 + 10*i + 5)},
		)
	}

	cells := make([]sweep.Cell, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		label := fmt.Sprintf("E11/s=%d/%s", spec.shards, spec.dist)
		cells = append(cells, rowCell(label, func() (tableOp, error) {
			// The Runner's Parallel threads through to the shard-level
			// fan-out and each group's pipeline workers, so the -parallel
			// byte-equivalence contract covers all three layers at once.
			cluster, err := kvstore.NewShardedCluster(
				shard.Config{Shards: spec.shards, Parallel: r.cfg.Parallel}, e11N,
				otr.Algorithm{}, e11Providers(seed+spec.off), e11MaxRounds,
				rsm.Tuning{BatchSize: e11Batch, Pipeline: e11Pipeline, Parallel: r.cfg.Parallel})
			if err != nil {
				return nil, err
			}
			ops := e11OpsPerShard * spec.shards
			res, err := shard.RunWorkload(cluster.Sharded(), rsm.WorkloadConfig{
				Clients: e11ClientsPerShard * spec.shards, Rate: 0.7, WriteRatio: 0.75,
				Keys: e11Keys, Dist: spec.dist, ZipfS: 0.99, Ops: ops,
				MaxSlots: 20 * ops, Seed: seed + spec.off + 1,
			}, kvstore.WorkloadCommand, kvstore.WorkloadRouteKey)
			if err != nil {
				return nil, err
			}
			if !cluster.Converged() {
				return nil, errors.New("a shard's replicas diverged")
			}
			hot := 0
			for _, ps := range res.PerShard {
				if ps.Completed > hot {
					hot = ps.Completed
				}
			}
			agg := res.Aggregate
			return func(t *Table) {
				t.AddRow(spec.shards, spec.dist.String(), agg.Completed,
					agg.SlotsPerCmd, agg.CmdsPerRound, int(agg.WallRounds),
					int(agg.LatencyP50), int(agg.LatencyP95), int(agg.LatencyP99), hot)
			}, nil
		}))
	}
	r.sweepInto(ctx, t, cells)
	t.Notes = append(t.Notes,
		fmt.Sprintf("weak scaling: %d clients and %d commands PER SHARD (arrival rate 0.7/window, 75%% writes, %d keys); shard environments cycle good / loss 30%% / crash-recovery", e11ClientsPerShard, e11OpsPerShard, e11Keys),
		"wall rounds is the run's global clock: Σ over closed-loop passes of the slowest ACTIVE shard's window (shards decide concurrently within a pass); hot-shard cmds shows the skew a zipfian workload concentrates on one group",
	)
	return t
}
