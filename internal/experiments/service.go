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

// E10 configuration shared by every cell: a 5-replica KV service with
// 8-command batches and a 4-deep slot pipeline, driven by a closed loop
// of 16 clients completing 150 commands.
const (
	e10N         = 5
	e10Batch     = 8
	e10Pipeline  = 4
	e10MaxRounds = 400
	e10Clients   = 16
	e10Ops       = 150
	e10Keys      = 48
	e10MaxSlots  = 2000
)

// e10Provider builds the per-slot HO environment of one E10 row
// (adversary's shared per-slot factories, also used by cmd/hoload).
//
//   - good: fault-free rounds, every slot.
//   - loss: sustained 20% iid transmission loss (DT class), forever.
//   - crash-recovery: a rotating replica is crashed for the first half of
//     every 10-slot epoch and recovers for the second half — a minority
//     is down at any time, so OneThirdRule still clears its 2n/3 quorum.
func e10Provider(env string, seed uint64) func(slot int) core.HOProvider {
	switch env {
	case "loss 20%":
		return adversary.SlotLoss(0.2, seed)
	case "crash-recovery":
		return adversary.SlotRotatingCrash(e10N, 10)
	default: // "good"
		return adversary.SlotFull()
	}
}

// E10Service measures the service layer end to end: the same closed-loop
// workload replayed over one group (the S = 1 case of the sharded
// assembly E11 scales out) of the batched + pipelined replication engine
// in a good-period, sustained-loss, and crash-recovery environment. This is
// the scenario-diversity payoff of the predicate abstraction (Shimi et
// al.): one stack, many fault environments, directly comparable numbers.
// One cell per row; throughput and latency are measured in simulated
// rounds, so the table is byte-stable across hosts and -parallel.
func (r *Runner) E10Service(ctx context.Context) *Table {
	t := &Table{
		ID:    "E10",
		Title: "service layer — closed-loop load over the batched+pipelined engine (n=5, batch 8, pipeline 4)",
		Header: []string{
			"environment", "keys", "cmds", "slots", "slots/cmd",
			"cmds/round", "wall rounds", "lat p50", "lat p95", "lat p99",
		},
	}
	seed := r.cfg.Seed

	type rowSpec struct {
		env  string
		dist rsm.KeyDist
		off  uint64
	}
	specs := []rowSpec{
		{"good", rsm.Uniform, 100},
		{"good", rsm.Zipfian, 200},
		{"loss 20%", rsm.Zipfian, 300},
		{"crash-recovery", rsm.Zipfian, 400},
	}

	cells := make([]sweep.Cell, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		cells = append(cells, rowCell("E10/"+spec.env+"/"+spec.dist.String(), func() (tableOp, error) {
			provider := e10Provider(spec.env, seed+spec.off)
			cluster, err := kvstore.NewShardedCluster(shard.Config{Shards: 1}, e10N, otr.Algorithm{},
				func(int) func(slot int) core.HOProvider { return provider }, e10MaxRounds,
				rsm.Tuning{BatchSize: e10Batch, Pipeline: e10Pipeline})
			if err != nil {
				return nil, err
			}
			out, err := shard.RunWorkload(cluster.Sharded(), rsm.WorkloadConfig{
				Clients: e10Clients, Rate: 0.7, WriteRatio: 0.75,
				Keys: e10Keys, Dist: spec.dist, ZipfS: 0.99, Ops: e10Ops,
				MaxSlots: e10MaxSlots, Seed: seed + spec.off + 1,
			}, kvstore.WorkloadCommand, kvstore.WorkloadRouteKey)
			if err != nil {
				return nil, err
			}
			if !cluster.Converged() {
				return nil, errors.New("replicas diverged")
			}
			res := out.Aggregate
			return func(t *Table) {
				t.AddRow(spec.env+" / "+spec.dist.String(), e10Keys,
					res.Completed, res.Slots, res.SlotsPerCmd, res.CmdsPerRound,
					int(res.WallRounds), int(res.LatencyP50), int(res.LatencyP95), int(res.LatencyP99))
			}, nil
		}))
	}
	r.sweepInto(ctx, t, cells)
	t.Notes = append(t.Notes,
		fmt.Sprintf("closed loop: %d clients, arrival rate 0.7/window, 75%% writes, %d commands; latency in rounds from submission to in-order apply", e10Clients, e10Ops),
		"slots/cmd < 1 is the batch codec amortizing consensus (the pre-rsm layer paid exactly 1.0); loss and crashes cost rounds per slot, not slots per command",
	)
	return t
}
