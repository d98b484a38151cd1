// Command hoload is the closed-loop load harness for the replication
// service layer (internal/kvstore over internal/shard over internal/rsm):
// a configurable client population drives -shards independent groups of
// batched + pipelined engines (default 1, the unsharded service) through
// chosen fault environments and the run reports each shard's view, then
// aggregate throughput, slots-per-command amortization, and
// latency-in-rounds percentiles.
//
// All measurements are in simulated rounds, so stdout is byte-identical
// for a given flag set regardless of host speed or -parallel; wall-clock
// timing goes to stderr.
//
// Usage:
//
//	hoload                                  # defaults: one group, good environment
//	hoload -env loss -loss 0.3              # sustained 30% transmission loss
//	hoload -env crash                       # rotating crash-recovery epochs
//	hoload -clients 64 -ops 2000 -dist zipfian -rate 0.9
//	hoload -batch 16 -pipeline 8            # service-layer tuning
//	hoload -shards 4                        # 4 independent groups, all -env
//	hoload -shards 4 -shardenvs good,loss,crash   # per-shard environments
//	hoload -zipf 0                          # an explicit s=0 IS honored
//
// With -http host:port[,host:port...] hoload instead drives a LIVE
// hoserve deployment over HTTP: a closed-loop mixed PUT/GET workload
// with per-client single-writer keys, checking every read against the
// last committed write (a linearizability check the replicated-log reads
// must pass) and reporting wall-clock throughput and latency
// percentiles. That mode measures real time and is not byte-reproducible
// — it is excluded from the CI determinism comparisons.
//
//	hoload -http 127.0.0.1:8101,127.0.0.1:8102 -clients 8 -ops 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 5, "number of replicas per shard")
		env       = flag.String("env", "good", "fault environment: good, loss, crash")
		lossRate  = flag.Float64("loss", 0.2, "transmission loss probability for loss environments")
		shards    = flag.Int("shards", 1, "independent replication groups over a partitioned keyspace")
		shardenvs = flag.String("shardenvs", "", "comma-separated per-shard environments, cycled across shards (default: -env everywhere)")
		clients   = flag.Int("clients", 16, "closed-loop client population")
		rate      = flag.Float64("rate", 0.7, "per-window submission probability of an idle client")
		writes    = flag.Float64("writes", 0.75, "write fraction of the operation mix")
		keys      = flag.Int("keys", 48, "key-space size")
		dist      = flag.String("dist", "zipfian", "key distribution: uniform or zipfian")
		zipfS     = flag.Float64("zipf", 0.99, "zipfian exponent (0 is uniform; the default is the YCSB 0.99)")
		ops       = flag.Int("ops", 500, "commands to complete")
		batch     = flag.Int("batch", 8, "commands per consensus slot (1..63)")
		pipeline  = flag.Int("pipeline", 4, "consensus slots in flight per window")
		parallel  = flag.Int("parallel", 0, "sweep workers for in-flight slots and shards (0 = natural width)")
		maxRounds = flag.Int("maxrounds", 400, "round budget per consensus slot")
		maxSlots  = flag.Int("maxslots", 0, "slot budget for the whole run (0 = 20×ops)")
		seed      = flag.Uint64("seed", 1, "workload and environment seed")

		httpTo    = flag.String("http", "", "drive a live hoserve deployment at these comma-separated HTTP addresses instead of the simulator")
		keysPerCl = flag.Int("keysperclient", 4, "http mode: private keys per client (single-writer linearizability check)")
		opTimeout = flag.Duration("optimeout", 15*time.Second, "http mode: per-request deadline")
	)
	flag.Parse()

	if *httpTo != "" {
		return runHTTP(httpConfig{
			servers:    strings.Split(*httpTo, ","),
			clients:    *clients,
			ops:        *ops,
			writeRatio: *writes,
			keysPerCl:  *keysPerCl,
			opTimeout:  *opTimeout,
			seed:       *seed,
		})
	}

	if *shards < 1 {
		return fmt.Errorf("shards = %d, need ≥ 1", *shards)
	}
	var keyDist rsm.KeyDist
	switch *dist {
	case "uniform":
		keyDist = rsm.Uniform
	case "zipfian":
		keyDist = rsm.Zipfian
	default:
		return fmt.Errorf("unknown key distribution %q (want uniform or zipfian)", *dist)
	}
	budget := *maxSlots
	if budget == 0 {
		budget = 20 * *ops
	}
	wcfg := rsm.WorkloadConfig{
		Clients: *clients, Rate: *rate, WriteRatio: *writes,
		Keys: *keys, Dist: keyDist, ZipfS: *zipfS,
		Ops: *ops, MaxSlots: budget, Seed: *seed,
	}
	tune := rsm.Tuning{BatchSize: *batch, Pipeline: *pipeline, Parallel: *parallel}

	envs := []string{*env}
	if *shardenvs != "" {
		envs = strings.Split(*shardenvs, ",")
		for i, e := range envs {
			envs[i] = strings.TrimSpace(e)
		}
	}
	envOf := func(s int) string { return envs[s%len(envs)] }
	// Validate every named environment up front (buildProvider errors on
	// unknown names and bad loss rates) — including entries the current
	// shard count would not reach, so a typo'd list always errors.
	for _, e := range envs {
		if _, err := buildProvider(e, *n, *lossRate, *seed); err != nil {
			return err
		}
	}
	providers := func(s int) func(slot int) core.HOProvider {
		// Seed each shard's environment from (seed, shard) so shard
		// environments are independent streams and independent of S-1
		// other shards' consumption.
		p, err := buildProvider(envOf(s), *n, *lossRate, *seed+uint64(s)*1000003)
		if err != nil { // unreachable: validated above
			panic(err)
		}
		return p
	}
	cluster, err := kvstore.NewShardedCluster(shard.Config{Shards: *shards, Parallel: *parallel},
		*n, otr.Algorithm{}, providers, core.Round(*maxRounds), tune)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := shard.RunWorkload(cluster.Sharded(), wcfg, kvstore.WorkloadCommand, kvstore.WorkloadRouteKey)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !cluster.Converged() {
		return fmt.Errorf("a shard's replicas diverged — impossible if consensus safety holds")
	}

	fmt.Printf("config env=%s shards=%d shardenvs=%s n=%d clients=%d rate=%g writes=%g keys=%d dist=%s ops=%d batch=%d pipeline=%d seed=%d\n",
		*env, *shards, *shardenvs, *n, *clients, *rate, *writes, *keys, keyDist, *ops, *batch, *pipeline, *seed)
	for s, ps := range res.PerShard {
		fmt.Printf("shard %d env=%s completed=%d slots=%d wall_rounds=%d lat p50=%d p95=%d p99=%d\n",
			s, envOf(s), ps.Completed, ps.Slots, ps.WallRounds,
			ps.LatencyP50, ps.LatencyP95, ps.LatencyP99)
	}
	agg := res.Aggregate
	fmt.Printf("completed %d\n", agg.Completed)
	fmt.Printf("slots %d\n", agg.Slots)
	fmt.Printf("slots_per_cmd %.4f\n", agg.SlotsPerCmd)
	fmt.Printf("cmds_per_round %.4f\n", agg.CmdsPerRound)
	fmt.Printf("wall_rounds %d\n", agg.WallRounds)
	fmt.Printf("total_rounds %d\n", agg.TotalRounds)
	fmt.Printf("latency_rounds p50=%d p95=%d p99=%d\n", agg.LatencyP50, agg.LatencyP95, agg.LatencyP99)
	fmt.Fprintf(os.Stderr, "hoload: %d commands over %d shards in %v (%.0f cmds/sec wall)\n",
		agg.Completed, *shards, elapsed.Round(time.Millisecond), float64(agg.Completed)/elapsed.Seconds())
	return nil
}

// buildProvider maps an environment name to a per-slot HO provider — the
// same shared factories (internal/adversary) experiments E10 and E11
// tabulate, so hoload runs are directly comparable to those tables.
func buildProvider(env string, n int, loss float64, seed uint64) (func(slot int) core.HOProvider, error) {
	switch env {
	case "good":
		return adversary.SlotFull(), nil
	case "loss":
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("loss rate %v outside [0, 1)", loss)
		}
		return adversary.SlotLoss(loss, seed), nil
	case "crash":
		return adversary.SlotRotatingCrash(n, 10), nil
	default:
		return nil, fmt.Errorf("unknown environment %q (want good, loss or crash)", env)
	}
}
