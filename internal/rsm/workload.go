// The closed-loop workload vocabulary: the generator's configuration and
// operations, and the mapping from engine counters to service-level
// numbers (throughput, slot amortization, latency-in-rounds
// percentiles). The one harness that runs a closed loop over Engines is
// shard.RunWorkload — S ≥ 1 groups, one group being the unsharded case.
// Everything is deterministic in (engine config, WorkloadConfig), so the
// same workload can be replayed across fault environments — the scenario
// diversity that Shimi et al. argue is the payoff of the predicate
// abstraction — and compared number-for-number.

package rsm

import (
	"fmt"
	"math"
	"sort"

	"heardof/internal/core"
)

// KeyDist selects the key-popularity distribution of a workload.
type KeyDist int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform KeyDist = iota
	// Zipfian draws keys with P(k) ∝ 1/(k+1)^s — a hot-key workload.
	Zipfian
)

// String implements fmt.Stringer.
func (d KeyDist) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

// Op is one generated operation, handed to the command constructor.
type Op struct {
	Client ClientID
	Seq    uint64
	// Write distinguishes the read/write mix (the engine replicates both:
	// a read through the log is a linearizable read).
	Write bool
	// Key is an index into the key space.
	Key int
}

// WorkloadConfig parameterizes a closed-loop run: each of Clients clients
// keeps at most one command outstanding, submitting a new one with
// probability Rate per window while idle, until Ops commands have been
// submitted and committed.
type WorkloadConfig struct {
	// Clients is the closed-loop client population.
	Clients int
	// Rate is the per-window submission probability of an idle client
	// (the arrival process), in (0, 1].
	Rate float64
	// WriteRatio is the fraction of writes in the mix, in [0, 1].
	WriteRatio float64
	// Keys is the key-space size.
	Keys int
	// Dist selects Uniform or Zipfian keys.
	Dist KeyDist
	// ZipfS is the Zipfian exponent. An explicit 0 is honored as s = 0
	// (a uniform draw through the Zipf sampler); defaults such as the
	// YCSB 0.99 live in the flag/config layer (cmd/hoload -zipf), not
	// here, so `-zipf 0` means what it says.
	ZipfS float64
	// Ops is the total number of commands to commit.
	Ops int
	// MaxSlots bounds consensus instances launched before giving up.
	MaxSlots int
	// Seed drives the workload's private RNG stream.
	Seed uint64
}

// WorkloadResult reports a run's service-level measurements. All fields
// are deterministic; none depend on wall-clock time or scheduling.
type WorkloadResult struct {
	// Completed counts committed commands (== Ops on success).
	Completed int
	// Slots and Launched mirror the engine counters for the run.
	Slots    int
	Launched int
	// WallRounds is elapsed service time in rounds; TotalRounds is
	// consensus work in rounds (> WallRounds when pipelining overlaps).
	WallRounds  core.Round
	TotalRounds core.Round
	// SlotsPerCmd is Slots/Completed — the amortization the batch codec
	// buys (1.0 would be the old one-command-per-slot layer).
	SlotsPerCmd float64
	// CmdsPerRound is Completed/WallRounds — closed-loop throughput in
	// commands per simulated round.
	CmdsPerRound float64
	// LatencyP50/P95/P99 are commit-latency percentiles in rounds,
	// measured from submission to in-order apply.
	LatencyP50, LatencyP95, LatencyP99 core.Round
}

// Validate checks the generator parameters.
func (cfg WorkloadConfig) Validate() error {
	if cfg.Clients < 1 {
		return fmt.Errorf("workload needs ≥ 1 client, got %d", cfg.Clients)
	}
	if !(cfg.Rate > 0 && cfg.Rate <= 1) {
		return fmt.Errorf("workload rate %v outside (0, 1]", cfg.Rate)
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return fmt.Errorf("write ratio %v outside [0, 1]", cfg.WriteRatio)
	}
	if cfg.Keys < 1 || cfg.Ops < 1 || cfg.MaxSlots < 1 {
		return fmt.Errorf("workload needs positive Keys, Ops and MaxSlots (got %d, %d, %d)",
			cfg.Keys, cfg.Ops, cfg.MaxSlots)
	}
	if cfg.ZipfS < 0 {
		return fmt.Errorf("zipfian exponent %v is negative", cfg.ZipfS)
	}
	return nil
}

// ResultFromStats derives a WorkloadResult from engine counters and the
// (not necessarily sorted) latencies of the same run — the one mapping
// from raw counters to service-level numbers, used for each group's view
// by shard.RunWorkload. lats is sorted in place.
func ResultFromStats(st Stats, lats []core.Round) WorkloadResult {
	var res WorkloadResult
	res.Completed = st.Committed
	res.Slots = st.Slots
	res.Launched = st.Launched
	res.WallRounds = st.WallRounds
	res.TotalRounds = st.TotalRounds
	if st.Committed > 0 {
		res.SlotsPerCmd = float64(st.Slots) / float64(st.Committed)
	}
	if st.WallRounds > 0 {
		res.CmdsPerRound = float64(st.Committed) / float64(st.WallRounds)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.LatencyP50 = Percentile(lats, 0.50)
	res.LatencyP95 = Percentile(lats, 0.95)
	res.LatencyP99 = Percentile(lats, 0.99)
	return res
}

// Percentile returns the q-quantile of an already-sorted latency slice
// using the nearest-rank definition — index ⌈q·n⌉−1 — or 0 for an empty
// slice. (An earlier version rounded q·n half-up, which picks the rank
// BELOW the nearest rank whenever q·n falls strictly between two
// integers by less than 0.5 — e.g. n=39, q=0.95: ⌈37.05⌉−1 = 37, but
// round-half-up gave 36.)
func Percentile(sorted []core.Round, q float64) core.Round {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon guards the ceil against float64 products landing one
	// ulp ABOVE an exact integer q·n (0.07·100 = 7.000000000000001 would
	// otherwise yield rank 8 where exact arithmetic says 7).
	const eps = 1e-9
	rank := int(math.Ceil(q*float64(len(sorted))-eps)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
