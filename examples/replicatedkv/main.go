// Replicated KV store: the application the paper's introduction motivates
// ("consensus is related to replication and appears when implementing
// atomic broadcast...").
//
// Five replicas replicate a key-value store through the batched +
// pipelined service layer (internal/rsm): each consensus slot decides a
// BATCH of commands, up to two slots run in flight per window, and every
// submission rides a client session with exactly-once dedup. The network
// suffers dynamic transient faults — every message may be lost — yet all
// replicas apply the same commands in the same order and converge. The
// engine stats show what batching buys: well under one consensus slot
// per command.
//
// Run with: go run ./examples/replicatedkv
package main

import (
	"fmt"
	"log"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/shard"
)

func main() {
	const n = 5

	// Every slot's consensus instance runs under 25% iid message loss
	// (the DT fault class — the most general benign class of §2.2),
	// drawn from the same shared environment factory the E10/E11
	// experiment tables and cmd/hoload use.
	provider := adversary.SlotLoss(0.25, 99)

	// One replication group: the S = 1 case of the sharded store (more
	// shards partition the keyspace, each under its own environment).
	cluster, err := kvstore.NewShardedCluster(shard.Config{Shards: 1}, n, otr.Algorithm{},
		func(int) func(slot int) core.HOProvider { return provider }, 500,
		rsm.Tuning{BatchSize: 4, Pipeline: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Clients contact different replicas; each contact runs its own
	// client session, so every Submit is a fresh command.
	workload := []struct {
		contact int
		cmd     kvstore.Command
	}{
		{0, kvstore.Command{Op: kvstore.OpPut, Key: "alice", Value: "100"}},
		{1, kvstore.Command{Op: kvstore.OpPut, Key: "bob", Value: "250"}},
		{2, kvstore.Command{Op: kvstore.OpPut, Key: "carol", Value: "75"}},
		{3, kvstore.Command{Op: kvstore.OpPut, Key: "alice", Value: "120"}},
		{4, kvstore.Command{Op: kvstore.OpDelete, Key: "bob"}},
		{0, kvstore.Command{Op: kvstore.OpPut, Key: "dave", Value: "300"}},
		{1, kvstore.Command{Op: kvstore.OpGet, Key: "alice"}}, // linearizable read through the log
	}
	for _, w := range workload {
		if err := cluster.Submit(w.contact, w.cmd); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client → replica %d: %v\n", w.contact, w.cmd)
	}

	fmt.Println("\nreplicating under 25% message loss (batch 4, pipeline 2)...")
	applied, err := cluster.Drain(100)
	if err != nil {
		log.Fatal(err)
	}
	st := cluster.Stats()
	fmt.Printf("%d commands over %d slots (%.2f slots/cmd, %d wall rounds, %d consensus rounds)\n\n",
		applied, st.Slots, float64(st.Slots)/float64(st.Committed), st.WallRounds, st.TotalRounds)

	if !cluster.Converged() {
		log.Fatal("replicas diverged — impossible if consensus safety holds")
	}
	fmt.Println("all replicas converged; replica 0's view:")
	for _, key := range []string{"alice", "bob", "carol", "dave"} {
		if v, ok := cluster.Get(key); ok {
			fmt.Printf("  %s = %s\n", key, v)
		} else {
			fmt.Printf("  %s   (absent)\n", key)
		}
	}
}
