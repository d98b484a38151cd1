// Closed-loop workload generation — the one harness that drives
// rsm.Engines, for any S ≥ 1 (S = 1 is the unsharded service): a
// configurable client population submits operations, each routed to the
// shard owning its key. Each pass submits arrivals, then drives one
// consensus window on EVERY shard with pending commands concurrently —
// the aggregate wall clock of a pass is the slowest shard's window, which
// is exactly what concurrent independent groups cost in simulated time.
//
// Everything is deterministic in (shard config, per-shard engine configs,
// WorkloadConfig): routing is a pure function, the workload owns a single
// RNG stream consumed in client order, and shard windows are merged in
// shard-index order.

package shard

import (
	"errors"
	"fmt"
	"sort"

	"heardof/internal/core"
	"heardof/internal/rsm"
	"heardof/internal/xrand"
)

// Result reports a sharded closed-loop run: the aggregate view plus each
// shard's own rsm.WorkloadResult (computed from that shard's counters and
// latencies, so per-shard tails under heterogeneous environments are
// visible next to the aggregate).
type Result struct {
	// Aggregate sums the per-shard counters and pools the latencies for
	// its percentiles. Its WallRounds is the run's GLOBAL clock: the
	// closed loop synchronizes shards once per pass (clients observe
	// completions, then submit), so each pass costs the slowest active
	// shard's window and the run costs the sum of those maxima. That is
	// ≥ every per-shard clock (an idle shard's own clock does not
	// advance) and ≤ their sum.
	Aggregate rsm.WorkloadResult
	// PerShard holds one result per shard, indexed by shard; WallRounds
	// there is that shard's own clock (it advances only while the shard
	// decides).
	PerShard []rsm.WorkloadResult
}

// RunWorkload drives a closed loop over a fresh sharded service: each of
// cfg.Clients clients keeps at most one command outstanding and, while
// idle, submits a new one with probability cfg.Rate per pass, until
// cfg.Ops commands are committed. MaxSlots is the GLOBAL consensus-launch
// budget summed across shards (a hard bound, allocated to shards in
// shard-index order each pass), and each generated op's Seq is the
// per-(shard, client) sequence number used for dedup on the owning shard.
//
// keyOf maps a generated operation to the uint64 routing key; nil means
// uint64(op.Key). Pass the application's own mapping whenever commands
// will also be routed outside this harness — kvstore workloads use
// kvstore.WorkloadRouteKey so workload-driven and Submit-driven traffic
// agree on every key's owning shard.
func RunWorkload[C any](s *Sharded[C], cfg rsm.WorkloadConfig, makeCmd func(rsm.Op) C,
	keyOf func(rsm.Op) uint64) (Result, error) {
	var res Result
	for i, e := range s.engines {
		if e.Stats().Launched != 0 || e.Pending() != 0 {
			return res, fmt.Errorf("shard: RunWorkload needs fresh engines (shard %d is used)", i)
		}
	}
	if err := cfg.Validate(); err != nil {
		return res, fmt.Errorf("shard: %w", err)
	}
	if makeCmd == nil {
		return res, errors.New("shard: nil command constructor")
	}
	if keyOf == nil {
		keyOf = func(op rsm.Op) uint64 { return uint64(op.Key) }
	}

	rng := xrand.New(cfg.Seed)
	var zipf *xrand.Zipf
	if cfg.Dist == rsm.Zipfian {
		zipf = xrand.NewZipf(rng.Fork(), cfg.ZipfS, cfg.Keys)
	}
	nextKey := func() int {
		if zipf != nil {
			return zipf.Next()
		}
		return rng.Intn(cfg.Keys)
	}

	// Per-(client, shard) sequence counters keep each client's stream
	// dense within every shard it touches, and outstanding[c] tracks the
	// closed loop's single in-flight command per client.
	type inflight struct {
		shard int
		seq   uint64
	}
	nextSeq := make([][]uint64, cfg.Clients)
	for c := range nextSeq {
		nextSeq[c] = make([]uint64, s.Shards())
	}
	outstanding := make([]inflight, cfg.Clients) // seq == 0 means idle
	submitted := 0
	// aggWall is the run's global clock: Σ over passes of the slowest
	// active shard's window. Per-shard engine clocks advance only while
	// that shard decides, so max over them would undercount whenever
	// activity alternates across shards between passes.
	var aggWall core.Round

	finish := func(err error) (Result, error) {
		res.PerShard = make([]rsm.WorkloadResult, s.Shards())
		agg := rsm.WorkloadResult{WallRounds: aggWall}
		var pooled []core.Round
		for i, e := range s.engines {
			st, lats := e.Stats(), e.Latencies()
			res.PerShard[i] = rsm.ResultFromStats(st, lats)
			agg.Completed += st.Committed
			agg.Slots += st.Slots
			agg.Launched += st.Launched
			agg.TotalRounds += st.TotalRounds
			pooled = append(pooled, lats...) // lats was sorted in place; pooled re-sorts anyway
		}
		if agg.Completed > 0 {
			agg.SlotsPerCmd = float64(agg.Slots) / float64(agg.Completed)
		}
		if agg.WallRounds > 0 {
			agg.CmdsPerRound = float64(agg.Completed) / float64(agg.WallRounds)
		}
		sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
		agg.LatencyP50 = rsm.Percentile(pooled, 0.50)
		agg.LatencyP95 = rsm.Percentile(pooled, 0.95)
		agg.LatencyP99 = rsm.Percentile(pooled, 0.99)
		res.Aggregate = agg
		return res, err
	}

	committed := func() int {
		total := 0
		for _, e := range s.engines {
			total += e.Stats().Committed
		}
		return total
	}
	launched := func() int {
		total := 0
		for _, e := range s.engines {
			total += e.Stats().Launched
		}
		return total
	}

	// The loop always terminates: every pass either submits (bounded by
	// Ops), launches slots (bounded by MaxSlots), or advances the RNG
	// toward the next arrival; the guard catches a pathological Rate.
	guard := 1000 * (cfg.MaxSlots + cfg.Ops + 1)
	for iter := 0; committed() < cfg.Ops; iter++ {
		if iter > guard {
			return finish(fmt.Errorf("shard: workload stalled after %d passes (rate %v too low?)", iter, cfg.Rate))
		}
		for c := 0; c < cfg.Clients && submitted < cfg.Ops; c++ {
			client := rsm.ClientID(c)
			if fl := outstanding[c]; fl.seq != 0 {
				if s.engines[fl.shard].AppliedSeq(client) < fl.seq {
					continue // closed loop: one outstanding command per client
				}
				outstanding[c] = inflight{}
			}
			if !rng.Bool(cfg.Rate) {
				continue
			}
			write := rng.Bool(cfg.WriteRatio)
			key := nextKey()
			sh := s.Route(keyOf(rsm.Op{Client: client, Write: write, Key: key}))
			nextSeq[c][sh]++
			op := rsm.Op{Client: client, Seq: nextSeq[c][sh], Write: write, Key: key}
			if ok, err := s.engines[sh].Submit(client, op.Seq, makeCmd(op)); err != nil || !ok {
				return finish(fmt.Errorf("shard %d: workload submit rejected (ok=%v): %w", sh, ok, err))
			}
			outstanding[c] = inflight{shard: sh, seq: op.Seq}
			submitted++
		}
		if s.Pending() == 0 {
			continue // nothing arrived this pass; no slots to spend
		}
		remaining := cfg.MaxSlots - launched()
		if remaining <= 0 {
			return finish(fmt.Errorf("shard: workload slot budget exhausted with %d of %d committed: %w",
				committed(), cfg.Ops, rsm.ErrSlotUndecided))
		}
		// Allocate the remaining global budget across this pass's windows
		// in shard-index order, clamping each shard's window so MaxSlots
		// stays a hard launch bound.
		active := make([]int, 0, s.Shards())
		caps := make(map[int]int, s.Shards())
		before := make(map[int]core.Round, s.Shards())
		for i, e := range s.engines {
			if e.Pending() == 0 || remaining == 0 {
				continue
			}
			want := e.PlannedWindow(remaining)
			active = append(active, i)
			caps[i] = want
			before[i] = e.Stats().WallRounds
			remaining -= want
		}
		_, werr := s.runShards(active, func(shard int) (int, error) {
			return s.engines[shard].DecideWindowCapped(caps[shard])
		})
		// The pass costs the slowest active shard's window — account it
		// even when the pass failed (those rounds were burned).
		var passWall core.Round
		for _, i := range active {
			if d := s.engines[i].Stats().WallRounds - before[i]; d > passWall {
				passWall = d
			}
		}
		aggWall += passWall
		if werr != nil {
			return finish(fmt.Errorf("shard: workload window failed: %w", werr))
		}
	}
	return finish(nil)
}
