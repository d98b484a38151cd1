package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// metricDef is one row of the benchmark's metric registry: the single
// source of the names, units and bounds that BENCHMARK.json, the README
// glossary and the printed tables all carry (hoperf_test.go holds
// BENCHMARK.json to it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 marks a
	// per-layer metric.
	Bound float64
	// Count marks a metric that must repeat exactly for one seed
	// (-selfcheck requires it identical across its two suites).
	Count bool
	// Moves names the end-to-end metric and workload this per-layer
	// metric is predicted to move, written down before any optimisation.
	Moves string
	// ByHand marks a per-layer metric that only workloads run by hand
	// measure. On BENCHMARK.json's workloads it would read 0 in every run,
	// so BENCHMARK.json and their result lines leave it out.
	ByHand bool
}

// workloadDef is one workload with the reason it exists.
type workloadDef struct {
	Name string
	Why  string
	// Steady marks the workloads BENCHMARK.json lists: those whose
	// end-to-end metrics repeat within their bounds on a shared two-core
	// host, because their rounds wait on timers and the processors are
	// mostly idle. The others keep the processors or the disk busy, so on
	// such a host they measure its other tenants (ten-run spreads of
	// 13–45 %); hoperf still runs them, for quiet hardware.
	Steady bool
}

var workloads = []workloadDef{
	{"live_delay", "in-process 3-node cluster, 500us one-way message delay, no disk, no faults: round- and queue-bound, where rounds per slot, the slot window and batching show", true},
	{"live_durable", "live_delay with a fsynced WAL on a real filesystem: a fifth of an op's latency is fsync, so group commit must show here and live_delay must not move", true},
	{"live_lossy", "live_delay's cluster under 10% loss and 0-500us delay: timeout- and sync-path-bound, the paper's transient faults; a change that wins fault-free and loses under loss fails here", true},
	{"live_volatile", "live_delay with instant delivery: CPU- and scheduler-bound, where shell allocations and ReplicaCore cost show", false},
	{"http_tcp3", "three real hoserve processes over loopback TCP driven by HTTP: framing and the process boundary dominate", false},
	{"live_recover", "cold restarts of a cluster from 100k PUTs of unsnapshotted log: WAL replay, the read side of live_durable's writes; one op is one restart", false},
	{"sim_predimpl", "the paper's Algorithm 3 + translation + OneThirdRule stack swept on simtime: the event core alone, counts repeat exactly; one op is one seed", false},
	{"sim_rsm", "sharded round-level rsm engine under good/loss/crash/good shards: the engine the live core must match, counts repeat exactly; one op is one 20k-command run", false},
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, so they are stated per operation, and each workload
// says what its operation is: a client's PUT or GET on the live
// workloads, one cold restart on live_recover, one seed's run on
// sim_predimpl, one 20k-command run on sim_rsm. README.md tabulates it.
//
// The bounds are calibrated on the shared 2-core sandbox this was built
// on: ten runs of one commit with ten seeds spread (interquartile range ÷
// median) by 1–3 % on live_delay and live_durable and by 3–7 % on
// live_lossy (whose loss pattern the seed draws), the host's noisy phases
// included, and a bound is at least three times the spread seen. What a
// metric needs to sit here is to wait on timers: anything that waits on
// the processors drifts by 20 % and more between the host's phases
// (cpu_ms_per_op did, and is per-layer for it).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	onDurable  = "ops_per_s, op_p50_ms on live_durable; none on live_delay, live_volatile, live_lossy, http_tcp3"
	onRecover  = "op_p50_ms (one restart) on live_recover"
	onBatching = "ops_per_s on live_delay, live_volatile and live_durable (op_p50_ms may rise with batching)"
	onRounds   = "op_p50_ms everywhere; op_p99_ms and ops_per_s on live_lossy; predicted ~0 fault-free"
	onCPU      = "cpu_ms_per_op everywhere, ops_per_s on live_volatile; none on live_delay, live_durable, live_lossy"
	onWire     = "op_p50_ms, cpu_ms_per_op on http_tcp3; negligible on live_*"
	onHTTP     = "op_p50_ms on http_tcp3 only"
	onSimPred  = "ops_per_s, op_p50_ms on sim_predimpl"
	onSimRsm   = "ops_per_s, op_p50_ms on sim_rsm"
)

// perLayer lists the single-layer observables, prefixed by module.
var perLayer = []metricDef{
	{Name: "wal.syncs_per_slot", Unit: "count", Better: "lower", Moves: onDurable},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower", Moves: onDurable},
	{Name: "wal.sync_us_p99", Unit: "us", Better: "lower", Moves: onDurable},
	{Name: "wal.sync_busy_frac", Unit: "frac", Better: "lower", Moves: onDurable},
	{Name: "wal.saves_per_slot", Unit: "count", Better: "lower", Moves: onDurable},
	{Name: "wal.bytes_per_slot", Unit: "B", Better: "lower", Moves: onDurable},
	{Name: "wal.snapshot_ms_p50", Unit: "ms", Better: "lower", Moves: onDurable},
	{Name: "wal.open_ms_p50", Unit: "ms", Better: "lower", Moves: onRecover, ByHand: true},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onRecover, ByHand: true},
	{Name: "wal.log_bytes", Unit: "B", Better: "lower", Moves: onRecover, ByHand: true},

	{Name: "live.replica.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.queue_wait_us_p99", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.slot_us_p50", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.slot_us_p99", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.slot_self_us_p50", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.ack_us_p50", Unit: "us", Better: "lower", Moves: onBatching},
	{Name: "live.replica.cmds_per_slot", Unit: "count", Better: "higher", Moves: onBatching},
	{Name: "live.replica.slots_per_s", Unit: "1/s", Better: "higher", Moves: onBatching},

	{Name: "live.replica.rounds_per_slot", Unit: "count", Better: "lower", Moves: onRounds},
	{Name: "live.replica.round_us_p50", Unit: "us", Better: "lower", Moves: onRounds},
	{Name: "live.replica.timeout_round_frac", Unit: "frac", Better: "lower", Moves: onRounds},
	{Name: "live.replica.sync_decision_frac", Unit: "frac", Better: "lower", Moves: onRounds},

	{Name: "live.replica.allocs_per_slot", Unit: "count", Better: "lower", Moves: onCPU},
	{Name: "live.replica.alloc_bytes_per_slot", Unit: "B", Better: "lower", Moves: onCPU},
	{Name: "live.core.step_ns_p50", Unit: "ns", Better: "lower", Moves: onCPU},
	{Name: "live.core.steps_per_slot", Unit: "count", Better: "lower", Count: true, Moves: onCPU},
	{Name: "live.core.ns_per_slot", Unit: "ns", Better: "lower", Moves: onCPU},
	{Name: "live.core.allocs_per_slot", Unit: "count", Better: "lower", Moves: onCPU},
	{Name: "live.core.envelopes_per_slot", Unit: "count", Better: "lower", Count: true, Moves: onCPU},
	{Name: "lastvoting.phase_ns", Unit: "ns", Better: "lower", Moves: onCPU},
	{Name: "lastvoting.allocs_per_phase", Unit: "count", Better: "lower", Moves: onCPU},
	{Name: "kvstore.apply_ns_p50", Unit: "ns", Better: "lower", Moves: onCPU},
	{Name: "kvstore.apply_busy_frac", Unit: "frac", Better: "lower", Moves: onCPU},

	{Name: "live.transport.sends_per_slot", Unit: "count", Better: "lower", Moves: onWire},
	{Name: "live.transport.bytes_per_slot", Unit: "B", Better: "lower", Moves: onWire},
	{Name: "live.transport.send_us_p50", Unit: "us", Better: "lower", Moves: onWire},
	{Name: "live.transport.send_busy_frac", Unit: "frac", Better: "lower", Moves: onWire},
	{Name: "live.transport.drop_frac", Unit: "frac", Better: "lower", Moves: onWire},
	{Name: "live.transport.sync_env_frac", Unit: "frac", Better: "lower", Moves: onWire},
	{Name: "live.tcp.rtt_us_p50", Unit: "us", Better: "lower", Moves: onWire, ByHand: true},
	{Name: "live.tcp.envelopes_per_s", Unit: "1/s", Better: "higher", Moves: onWire, ByHand: true},
	{Name: "live.codec.envelope_ns", Unit: "ns", Better: "lower", Moves: onWire},

	{Name: "hoserve.http_floor_us_p50", Unit: "us", Better: "lower", Moves: onHTTP, ByHand: true},
	{Name: "hoserve.cpu_ms_per_op", Unit: "ms", Better: "lower", Moves: onHTTP, ByHand: true},
	{Name: "hoserve.rss_mb_max", Unit: "MB", Better: "lower", Moves: onHTTP, ByHand: true},
	{Name: "hoserve.cmds_per_slot", Unit: "count", Better: "higher", Moves: onHTTP, ByHand: true},
	{Name: "hoserve.sync_decision_frac", Unit: "frac", Better: "lower", Moves: onHTTP, ByHand: true},
	{Name: "hoserve.loader_cpu_frac", Unit: "frac", Better: "lower", Moves: onHTTP, ByHand: true},

	{Name: "simtime.steps", Unit: "count", Better: "lower", Count: true, Moves: onSimPred, ByHand: true},
	{Name: "simtime.messages_sent", Unit: "count", Better: "lower", Count: true, Moves: onSimPred, ByHand: true},
	{Name: "predimpl.decision_ratio_max", Unit: "frac", Better: "lower", Count: true, Moves: onSimPred, ByHand: true},
	{Name: "simtime.ns_per_step", Unit: "ns", Better: "lower", Moves: onSimPred, ByHand: true},
	{Name: "simtime.allocs_per_step", Unit: "count", Better: "lower", Moves: onSimPred, ByHand: true},
	{Name: "sweep.parallel_speedup", Unit: "x", Better: "higher", Moves: onSimPred, ByHand: true},
	{Name: "rsm.slots_per_cmd", Unit: "count", Better: "lower", Count: true, Moves: onSimRsm, ByHand: true},
	{Name: "rsm.cmds_per_round", Unit: "count", Better: "higher", Count: true, Moves: onSimRsm, ByHand: true},
	{Name: "rsm.total_rounds", Unit: "count", Better: "lower", Count: true, Moves: onSimRsm, ByHand: true},
	{Name: "rsm.aborted_frac", Unit: "frac", Better: "lower", Count: true, Moves: onSimRsm, ByHand: true},
	{Name: "shard.wall_rounds", Unit: "count", Better: "lower", Count: true, Moves: onSimRsm, ByHand: true},
	{Name: "rsm.ns_per_cmd", Unit: "ns", Better: "lower", Moves: onSimRsm, ByHand: true},
	{Name: "rsm.allocs_per_cmd", Unit: "count", Better: "lower", Moves: onSimRsm, ByHand: true},

	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Moves: "user-mode CPU of every process involved per op, on the traced pass's untraced reference window: what the work costs whoever pays for the machine; no bound, because between a shared host's quiet and noisy phases it drifted by 19 % on unchanged code"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Moves: "the client-observed tail, on the traced pass's untraced reference window; under loss it hangs on which ops wait out a 250 ms heartbeat and spread 20-34 % across seeds, so it carries no bound"},
	{Name: "livekv.op_us_p50", Unit: "us", Better: "lower", Moves: "the traced twin's op_p50_ms; the budget rows must sum to it"},
	{Name: "livekv.group_skew", Unit: "x", Better: "lower", Moves: "ops_per_s on live_*: one hot group serialises the load"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: "none: guards the tracer's cost and drift between the twin and livekv.NewNode"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower", Moves: "none: the budget's gap; above 0.10 a layer is missing"},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Moves: "any increase is a regression on every live workload"},
	{Name: "proc.sys_cpu_ms_per_op", Unit: "ms", Better: "lower", Moves: "none bounded: kernel CPU per op (fsync, sockets), kept out of cpu_ms_per_op because it is not steady; frame coalescing should lower it on http_tcp3, group commit on live_durable"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none: memory moved between layers shows here"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Moves: "op_p99_ms on live_volatile"},
	{Name: "proc.build_s", Unit: "s", Better: "lower", Moves: "none: the hoserve build, kept out of setup_s", ByHand: true},
	{Name: "env.fsync_us_p50", Unit: "us", Better: "lower", Moves: "none: below 20us live_durable is not on durable media"},
	{Name: "env.nproc", Unit: "count", Better: "higher", Moves: "none: recorded so numbers from different machines are not compared blind"},
	{Name: "env.gomaxprocs", Unit: "count", Better: "higher", Moves: "none: recorded, see env.nproc"},
}

// listedPerLayer is BENCHMARK.json's per-layer list: every metric one of
// its workloads measures.
func listedPerLayer() []metricDef {
	var listed []metricDef
	for _, d := range perLayer {
		if !d.ByHand {
			listed = append(listed, d)
		}
	}
	return listed
}

// perLayerOf lists the per-layer metrics a workload's traced result line
// carries: BENCHMARK.json's for one of its workloads, all of them for a
// workload run by hand.
func perLayerOf(workload string) []metricDef {
	for _, w := range workloads {
		if w.Name == workload && w.Steady {
			return listedPerLayer()
		}
	}
	return perLayer
}

// metricValue is one measured number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measured values. A pass fills in what
// it measured; complete adds the rest of its list at 0 ("not measured on
// this workload"), because the result line carries every name.
type metricSet map[string]float64

// complete returns defs' metrics in result-line form, reporting any
// measured name that is not among them (a typo in a workload, or a metric
// marked ByHand that a listed workload does measure).
func (m metricSet) complete(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	var unknown []string
	for name := range m {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics measured but not in the result line's list: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// defaultSeconds is one pass's measuring time, BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// describe renders the registry as BENCHMARK.json (-describe prints it).
func describe() ([]byte, error) {
	spec := benchmarkSpec{
		Command:    []string{"bash", "cmd/hoperf/bench.sh"},
		Paths:      []string{"cmd/hoperf"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if w.Steady {
			spec.Workloads = append(spec.Workloads, specNamed{Name: w.Name, Why: w.Why})
		}
	}
	for _, d := range endToEnd {
		b := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range listedPerLayer() {
		spec.PerLayer = append(spec.PerLayer, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return json.MarshalIndent(spec, "", "  ")
}
