package shard

import (
	"errors"
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/rsm"
)

func opCmd(op rsm.Op) string {
	kind := "r"
	if op.Write {
		kind = "w"
	}
	return fmt.Sprintf("%s c%d#%d k%d", kind, op.Client, op.Seq, op.Key)
}

// mixedEnv cycles good / 30%-loss / crash-recovery across shards.
func mixedEnv(n int) func(shard int) func(slot int) core.HOProvider {
	return func(shard int) func(slot int) core.HOProvider {
		switch shard % 3 {
		case 1:
			return adversary.SlotLoss(0.3, 500+uint64(shard))
		case 2:
			return adversary.SlotRotatingCrash(n, 10)
		default:
			return adversary.SlotFull()
		}
	}
}

func TestShardedWorkloadCompletes(t *testing.T) {
	s, l := newSharded(t, Config{Shards: 4}, 5, mixedEnv(5), rsm.Tuning{BatchSize: 8, Pipeline: 4})
	res, err := RunWorkload(s, rsm.WorkloadConfig{
		Clients: 12, Rate: 0.8, WriteRatio: 0.7, Keys: 64,
		Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 160, MaxSlots: 2000, Seed: 4,
	}, opCmd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Completed != 160 {
		t.Errorf("completed %d of 160", res.Aggregate.Completed)
	}
	if res.Aggregate.SlotsPerCmd >= 1 {
		t.Errorf("slots/cmd = %v; batching should amortize below 1", res.Aggregate.SlotsPerCmd)
	}
	if res.Aggregate.CmdsPerRound <= 0 {
		t.Errorf("throughput = %v", res.Aggregate.CmdsPerRound)
	}
	if len(res.PerShard) != 4 {
		t.Fatalf("per-shard results: %d, want 4", len(res.PerShard))
	}
	sum, slots, launched := 0, 0, 0
	maxWall := core.Round(0)
	for i, ps := range res.PerShard {
		sum += ps.Completed
		slots += ps.Slots
		launched += ps.Launched
		if ps.WallRounds > maxWall {
			maxWall = ps.WallRounds
		}
		if ps.Completed > 0 && (ps.LatencyP50 < 1 || ps.LatencyP95 < ps.LatencyP50 || ps.LatencyP99 < ps.LatencyP95) {
			t.Errorf("shard %d percentiles out of order: %+v", i, ps)
		}
	}
	if sum != res.Aggregate.Completed || slots != res.Aggregate.Slots || launched != res.Aggregate.Launched {
		t.Errorf("per-shard sums (%d, %d, %d) don't match aggregate (%d, %d, %d)",
			sum, slots, launched, res.Aggregate.Completed, res.Aggregate.Slots, res.Aggregate.Launched)
	}
	// The aggregate clock accumulates the slowest active shard's window
	// per pass: at least the slowest shard's own clock (equality when one
	// shard dominates every pass), at most the sum of all shard clocks.
	var sumWall core.Round
	for _, ps := range res.PerShard {
		sumWall += ps.WallRounds
	}
	if res.Aggregate.WallRounds < maxWall || res.Aggregate.WallRounds > sumWall {
		t.Errorf("aggregate wall %d outside [max shard wall %d, sum %d]",
			res.Aggregate.WallRounds, maxWall, sumWall)
	}
	if !l.converged() {
		t.Error("a shard's replicas diverged")
	}
	if dup, has := l.firstDuplicate(); has {
		t.Errorf("command %q applied twice", dup)
	}
}

func TestShardedWorkloadDeterministicAndParallelInvisible(t *testing.T) {
	run := func(shardParallel, engineParallel int) (Result, string) {
		s, l := newSharded(t, Config{Shards: 4, Parallel: shardParallel}, 5, mixedEnv(5),
			rsm.Tuning{BatchSize: 6, Pipeline: 4, Parallel: engineParallel})
		res, err := RunWorkload(s, rsm.WorkloadConfig{
			Clients: 10, Rate: 0.7, WriteRatio: 0.6, Keys: 48,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 120, MaxSlots: 2000, Seed: 21,
		}, opCmd, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, shardFingerprint(s, l)
	}
	r1, f1 := run(1, 1)
	r2, f2 := run(8, 4)
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
		t.Errorf("workload results differ across Parallel settings:\n%+v\nvs\n%+v", r1, r2)
	}
	if f1 != f2 {
		t.Error("engine fingerprints differ across Parallel settings")
	}
	// And a same-setting replay is bit-identical too.
	r3, f3 := run(1, 1)
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r3) || f1 != f3 {
		t.Error("identical runs diverged")
	}
}

func TestShardedWorkloadBudgetIsGlobalHardBound(t *testing.T) {
	s, _ := newSharded(t, Config{Shards: 4}, 3, allGood, rsm.Tuning{BatchSize: 1, Pipeline: 4})
	_, err := RunWorkload(s, rsm.WorkloadConfig{
		Clients: 8, Rate: 1, WriteRatio: 1, Keys: 32,
		Ops: 400, MaxSlots: 6, Seed: 2,
	}, opCmd, nil)
	if !errors.Is(err, rsm.ErrSlotUndecided) {
		t.Fatalf("error = %v, want ErrSlotUndecided", err)
	}
	if launched := s.Stats().Launched; launched > 6 {
		t.Errorf("launched %d consensus instances, budget was 6 (hard bound)", launched)
	}
}

func TestShardedWorkloadValidation(t *testing.T) {
	good := rsm.WorkloadConfig{Clients: 1, Rate: 0.5, WriteRatio: 0.5, Keys: 1, Ops: 1, MaxSlots: 10, Seed: 1}
	mutations := []func(*rsm.WorkloadConfig){
		func(c *rsm.WorkloadConfig) { c.Clients = 0 },
		func(c *rsm.WorkloadConfig) { c.Rate = 0 },
		func(c *rsm.WorkloadConfig) { c.Rate = 1.5 },
		func(c *rsm.WorkloadConfig) { c.WriteRatio = -0.1 },
		func(c *rsm.WorkloadConfig) { c.Keys = 0 },
		func(c *rsm.WorkloadConfig) { c.Ops = 0 },
		func(c *rsm.WorkloadConfig) { c.MaxSlots = 0 },
		func(c *rsm.WorkloadConfig) { c.ZipfS = -0.5 },
	}
	for i, mut := range mutations {
		s, _ := newSharded(t, Config{Shards: 2}, 3, allGood, rsm.Tuning{})
		cfg := good
		mut(&cfg)
		if _, err := RunWorkload(s, cfg, opCmd, nil); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	s, _ := newSharded(t, Config{Shards: 2}, 3, allGood, rsm.Tuning{})
	if _, err := RunWorkload[string](s, good, nil, nil); err == nil {
		t.Error("nil makeCmd accepted")
	}
	// A used service is rejected.
	s2, _ := newSharded(t, Config{Shards: 2}, 3, allGood, rsm.Tuning{})
	s2.SubmitNext(1, 1, "x")
	if _, err := RunWorkload(s2, good, opCmd, nil); err == nil {
		t.Error("non-fresh service accepted")
	}
}
