// The closed-loop cases drive the one workload harness, shard.RunWorkload,
// over a single group — from an external test package, because shard
// imports rsm.
package rsm_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/shard"
	"heardof/internal/xrand"
)

func fullProvider(int) core.HOProvider { return adversary.Full{} }

// replicaLogs holds what each of the one group's five replicas applied,
// in order.
type replicaLogs [][]string

func newLogs() replicaLogs { return make(replicaLogs, 5) }

func (l replicaLogs) apply(replica int, cmd string) { l[replica] = append(l[replica], cmd) }

func (l replicaLogs) converged() bool {
	for _, lg := range l[1:] {
		if !reflect.DeepEqual(lg, l[0]) {
			return false
		}
	}
	return true
}

func (l replicaLogs) firstDuplicate() (string, bool) {
	seen := make(map[string]bool)
	for _, cmd := range l[0] {
		if seen[cmd] {
			return cmd, true
		}
		seen[cmd] = true
	}
	return "", false
}

// singleGroup builds the S = 1 service: one 5-replica engine with
// 8-command batches under the given per-slot environment.
func singleGroup(t testing.TB, provider func(int) core.HOProvider, pipeline int,
	apply func(replica int, cmd string)) *shard.Sharded[string] {
	t.Helper()
	s, err := shard.New[string](shard.Config{Shards: 1},
		func(int) rsm.Config {
			return rsm.Config{N: 5, Algorithm: otr.Algorithm{}, Provider: provider,
				MaxRounds: 500, BatchSize: 8, Pipeline: pipeline}
		},
		func(_, replica int, cmd string) { apply(replica, cmd) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func opCmd(op rsm.Op) string {
	kind := "r"
	if op.Write {
		kind = "w"
	}
	return fmt.Sprintf("%s c%d#%d k%d", kind, op.Client, op.Seq, op.Key)
}

func TestWorkloadClosedLoopCompletes(t *testing.T) {
	l := newLogs()
	s := singleGroup(t, fullProvider, 4, l.apply)
	out, err := shard.RunWorkload(s, rsm.WorkloadConfig{
		Clients: 10, Rate: 0.8, WriteRatio: 0.7, Keys: 32,
		Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 120, MaxSlots: 400, Seed: 3,
	}, opCmd, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Aggregate
	if res.Completed != 120 {
		t.Errorf("completed %d of 120", res.Completed)
	}
	if res.SlotsPerCmd >= 1 {
		t.Errorf("slots/cmd = %v; batching should amortize below 1", res.SlotsPerCmd)
	}
	if res.CmdsPerRound <= 0 {
		t.Errorf("throughput = %v", res.CmdsPerRound)
	}
	if res.LatencyP50 < 1 || res.LatencyP95 < res.LatencyP50 || res.LatencyP99 < res.LatencyP95 {
		t.Errorf("latency percentiles out of order: p50=%d p95=%d p99=%d",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	// One group: its own view IS the aggregate, clock included.
	if len(out.PerShard) != 1 || out.PerShard[0] != res {
		t.Errorf("S=1 per-shard view %+v differs from the aggregate %+v", out.PerShard, res)
	}
	if !l.converged() {
		t.Error("replicas diverged")
	}
	if dup, has := l.firstDuplicate(); has {
		t.Errorf("command %q applied twice", dup)
	}
}

func TestWorkloadUnderLossStillExactlyOnce(t *testing.T) {
	rng := xrand.New(23)
	provider := func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.25, RNG: rng.Fork()}
	}
	l := newLogs()
	s := singleGroup(t, provider, 4, l.apply)
	out, err := shard.RunWorkload(s, rsm.WorkloadConfig{
		Clients: 6, Rate: 0.9, WriteRatio: 0.5, Keys: 16,
		Dist: rsm.Uniform, Ops: 60, MaxSlots: 600, Seed: 5,
	}, opCmd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Aggregate.Completed != 60 {
		t.Errorf("completed %d of 60", out.Aggregate.Completed)
	}
	if !l.converged() {
		t.Error("replicas diverged under loss")
	}
	if dup, has := l.firstDuplicate(); has {
		t.Errorf("command %q applied twice", dup)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	run := func() (rsm.WorkloadResult, replicaLogs) {
		provider := func(slot int) core.HOProvider {
			return &adversary.TransmissionLoss{Rate: 0.15, RNG: xrand.New(5000 + uint64(slot))}
		}
		l := newLogs()
		s := singleGroup(t, provider, 4, l.apply)
		out, err := shard.RunWorkload(s, rsm.WorkloadConfig{
			Clients: 8, Rate: 0.7, WriteRatio: 0.6, Keys: 24,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 80, MaxSlots: 500, Seed: 11,
		}, opCmd, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Aggregate, l
	}
	r1, l1 := run()
	r2, l2 := run()
	if r1 != r2 {
		t.Errorf("results differ: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Error("applied logs differ between identical runs")
	}
}

func TestWorkloadBudgetExhaustion(t *testing.T) {
	s := singleGroup(t, fullProvider, 1, func(int, string) {})
	_, err := shard.RunWorkload(s, rsm.WorkloadConfig{
		Clients: 4, Rate: 1, WriteRatio: 1, Keys: 4,
		Ops: 500, MaxSlots: 3, Seed: 1,
	}, opCmd, nil)
	if !errors.Is(err, rsm.ErrSlotUndecided) {
		t.Errorf("error = %v, want ErrSlotUndecided", err)
	}
	if launched := s.Stats().Launched; launched != 3 {
		t.Errorf("launched %d consensus instances, budget was 3", launched)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// Regression: the old implementation rounded q·n half-up
	// (int(q·n+0.5)−1), which undershoots the nearest rank ⌈q·n⌉−1
	// whenever frac(q·n) ∈ (0, 0.5) — e.g. n=39, q=0.95 gave index 36
	// instead of 37.
	seq := func(n int) []core.Round {
		out := make([]core.Round, n)
		for i := range out {
			out[i] = core.Round(i) // sorted[i] == i, so values ARE indexes
		}
		return out
	}
	tests := []struct {
		n    int
		q    float64
		want core.Round
	}{
		{39, 0.95, 37},   // ⌈37.05⌉−1 = 37; the old code picked 36
		{39, 0.50, 19},   // ⌈19.5⌉−1 = 19
		{39, 0.99, 38},   // ⌈38.61⌉−1 = 38
		{150, 0.99, 148}, // ⌈148.5⌉−1 = 148; the old code picked 147
		{100, 0.95, 94},  // q·n integral: ⌈95⌉−1 = 94
		{100, 0.50, 49},
		{1, 0.99, 0},
		{10, 0.01, 0}, // ⌈0.1⌉−1 = 0
		{4, 1.0, 3},   // q = 1 is the maximum
		// Float guard: 0.07·100 is 7.000000000000001 in float64; a naive
		// ceil would overshoot to rank 7 where exact ⌈7⌉−1 = 6.
		{100, 0.07, 6},
	}
	for _, tt := range tests {
		if got := rsm.Percentile(seq(tt.n), tt.q); got != tt.want {
			t.Errorf("Percentile(n=%d, q=%v) = %d, want %d", tt.n, tt.q, got, tt.want)
		}
	}
	if got := rsm.Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %d, want 0", got)
	}
}

func TestZipfExponentZeroIsHonored(t *testing.T) {
	// Regression: ZipfS == 0 used to be treated as "unset → 0.99", so an
	// explicit `-zipf 0` silently ran the YCSB default. Now an explicit 0
	// runs s = 0 (uniform through the Zipf sampler) and must generate a
	// different key sequence than s = 0.99.
	keysFor := func(zipfS float64) []string {
		s := singleGroup(t, fullProvider, 1, func(int, string) {})
		var keys []string
		_, err := shard.RunWorkload(s, rsm.WorkloadConfig{
			Clients: 4, Rate: 0.9, WriteRatio: 1, Keys: 64,
			Dist: rsm.Zipfian, ZipfS: zipfS, Ops: 80, MaxSlots: 400, Seed: 9,
		}, func(op rsm.Op) string {
			k := fmt.Sprintf("k%d", op.Key)
			keys = append(keys, k)
			return k
		}, nil)
		if err != nil {
			t.Fatalf("s=%v: %v", zipfS, err)
		}
		return keys
	}
	zero, ycsb := keysFor(0), keysFor(0.99)
	if fmt.Sprint(zero) == fmt.Sprint(ycsb) {
		t.Error("ZipfS=0 generated the same keys as ZipfS=0.99 — the explicit 0 was overridden")
	}
	// s = 0 is uniform: with 80 draws over 64 keys no key should dominate
	// the way a 0.99-skewed stream's hottest key does.
	hottest := func(keys []string) int {
		count, best := make(map[string]int), 0
		for _, k := range keys {
			count[k]++
			if count[k] > best {
				best = count[k]
			}
		}
		return best
	}
	if mz, my := hottest(zero), hottest(ycsb); mz >= my {
		t.Errorf("hottest-key count under s=0 (%d) not below s=0.99 (%d) — s=0 should be uniform", mz, my)
	}
}

// TestWorkloadValidation checks the generator parameters where they are
// declared; that the harness refuses them (and a nil constructor, and a
// used service) is shard's TestShardedWorkloadValidation.
func TestWorkloadValidation(t *testing.T) {
	good := rsm.WorkloadConfig{Clients: 1, Rate: 0.5, WriteRatio: 0.5, Keys: 1, Ops: 1, MaxSlots: 10, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
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
		cfg := good
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
}

// BenchmarkRSM_ClosedLoopWorkload runs the E10-shaped closed loop: 16
// zipfian clients completing 150 commands over one group, fault-free
// (scripts/bench.sh parses it into BENCH_kv.json with the rest of the
// BenchmarkRSM_* suite in bench_test.go).
func BenchmarkRSM_ClosedLoopWorkload(b *testing.B) {
	const cmds = 150
	var st rsm.Stats
	for i := 0; i < b.N; i++ {
		s := singleGroup(b, fullProvider, 4, func(int, string) {})
		_, err := shard.RunWorkload(s, rsm.WorkloadConfig{
			Clients: 16, Rate: 0.7, WriteRatio: 0.75, Keys: 48,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: cmds, MaxSlots: 2000, Seed: uint64(i) + 1,
		}, func(op rsm.Op) string {
			return fmt.Sprintf("c%d#%d k%d", op.Client, op.Seq, op.Key)
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		st = s.Stats()
	}
	b.ReportMetric(float64(cmds*b.N)/b.Elapsed().Seconds(), "cmds/sec")
	b.ReportMetric(float64(st.Slots)/float64(st.Committed), "slots/cmd")
}
