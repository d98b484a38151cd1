package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"heardof/internal/live"
	"heardof/internal/livekv"
)

// Deployment sizing shared by every live workload.
//
// roundTimeout is well above a fault-free round (1.2 ms with the delay,
// 1.7 ms with fsyncs on top), as a deployment would set it. At hoserve's
// default of 2 ms live_durable sat on the edge: whether a round closed in
// time flipped with the disk's mood, rounds per slot swung between 4.5 and
// 5.0 and op_p50_ms by 20 % between runs of the same code.
const (
	liveNodes    = 3
	liveGroups   = 2
	roundTimeout = 5 * time.Millisecond
	maxBatch     = 64
	lossRate     = 0.10
	maxDelay     = 500 * time.Microsecond
	fixedDelay   = 500 * time.Microsecond
	convergeWait = 5 * time.Second
)

// liveSpec is what distinguishes the in-process live workloads.
type liveSpec struct {
	name    string
	durable bool // fsynced WAL under a data dir
	lossy   bool // 10 % loss and 0–500 µs delay on every node
	// delay is a fixed one-way delay on every message. With instant
	// delivery an operation's latency is processor time only, and on a
	// shared host that measures the other tenants; with a delay the
	// rounds wait on timers and the processors are mostly idle.
	delay time.Duration
	// setups is how many times the set-up (start → first commit through
	// every node → 4 ops per client) is repeated; setup_s is the median
	// over groups of setupGroup consecutive set-ups of the group's mean.
	setups int
}

const setupGroup = 5

var liveSpecs = map[string]liveSpec{
	"live_delay":    {name: "live_delay", delay: fixedDelay, setups: 15},
	"live_lossy":    {name: "live_lossy", lossy: true, setups: 15},
	"live_volatile": {name: "live_volatile", setups: 100},
	"live_durable":  {name: "live_durable", durable: true, delay: fixedDelay, setups: 15},
}

// applyFaults sets one node's fault environment.
func (s liveSpec) applyFaults(f *live.Faults) {
	switch {
	case s.lossy:
		f.SetLoss(lossRate)
		f.SetDelay(0, maxDelay)
	case s.delay > 0:
		f.SetDelay(s.delay, s.delay)
	}
}

// network states the fault environment in words, for the output.
func (s liveSpec) network() string {
	switch {
	case s.lossy:
		return fmt.Sprintf("%.0f%% loss and a uniform 0-%v one-way delay on every message", 100*lossRate, maxDelay)
	case s.delay > 0:
		return fmt.Sprintf("a fixed %v one-way delay on every message, no loss", s.delay)
	}
	return "instant delivery, no loss"
}

func (s liveSpec) config(dataDir string) livekv.Config {
	return livekv.Config{
		Replicas: liveNodes, Groups: liveGroups,
		RoundTimeout: roundTimeout, MaxBatch: maxBatch, OpTimeout: opDeadline,
		DataDir: dataDir,
	}
}

// startCluster builds and starts the deployment under test.
func startCluster(spec liveSpec, cfg livekv.Config, faultSeed uint64) (*livekv.Cluster, error) {
	cl, err := livekv.NewCluster(cfg, faultSeed)
	if err != nil {
		return nil, err
	}
	for p := 0; p < cl.N(); p++ {
		spec.applyFaults(cl.Faults(p))
	}
	cl.Start()
	return cl, nil
}

// groupStatus is one group's agreement state on one node, whichever way
// it was obtained (livekv.Node.Status, the twin's replicas, or /stats).
type groupStatus struct {
	slots         uint64
	logHash       uint64
	state         string
	committed     int
	divergent     int
	syncDecisions int
	rounds        int64 // 0 where the source does not export it (/stats)
}

// agreement checks one snapshot of every node's groups: equal decision
// logs, equal state machines, no divergent observation anywhere.
func agreement(sts [][]groupStatus) error {
	for p, groups := range sts {
		if len(groups) != len(sts[0]) {
			return fmt.Errorf("node %d reports %d groups, node 0 reports %d", p, len(groups), len(sts[0]))
		}
		for g, st := range groups {
			want := sts[0][g]
			switch {
			case st.divergent != 0:
				return fmt.Errorf("node %d group %d observed %d divergent decisions", p, g, st.divergent)
			case st.slots != want.slots || st.logHash != want.logHash:
				return fmt.Errorf("node %d group %d log (%d, %#x) != node 0's (%d, %#x)", p, g, st.slots, st.logHash, want.slots, want.logHash)
			case st.state != want.state:
				return fmt.Errorf("node %d group %d state diverged from node 0", p, g)
			}
		}
	}
	return nil
}

// convergedWithin polls read until every node agrees or d has passed; the
// load must have stopped first.
func convergedWithin(d time.Duration, read func() ([][]groupStatus, error)) ([][]groupStatus, error) {
	deadline := time.Now().Add(d)
	for {
		sts, err := read()
		if err == nil {
			err = agreement(sts)
		}
		if err == nil {
			return sts, nil
		}
		if time.Now().After(deadline) {
			return sts, fmt.Errorf("no convergence within %v: %w", d, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaCounters are the per-layer numbers the replicas' own counters
// give, summed over every replica of the deployment.
type replicaCounters struct {
	replicaSlots, committed, rounds, syncDecisions float64
	groupSkew                                      float64
}

func countersOf(sts [][]groupStatus) replicaCounters {
	var rc replicaCounters
	for _, groups := range sts {
		for _, st := range groups {
			rc.replicaSlots += float64(st.slots)
			rc.committed += float64(st.committed)
			rc.rounds += float64(st.rounds)
			rc.syncDecisions += float64(st.syncDecisions)
		}
	}
	if len(sts) > 0 {
		lo, hi := sts[0][0].slots, sts[0][0].slots
		for _, st := range sts[0] {
			lo, hi = min(lo, st.slots), max(hi, st.slots)
		}
		rc.groupSkew = ratio(float64(hi), float64(lo))
	}
	return rc
}

// minus is the counters' growth since an earlier reading.
func (rc replicaCounters) minus(old replicaCounters) replicaCounters {
	rc.replicaSlots -= old.replicaSlots
	rc.committed -= old.committed
	rc.rounds -= old.rounds
	rc.syncDecisions -= old.syncDecisions
	return rc
}

// into writes the counter-derived per-layer metrics for a window.
func (rc replicaCounters) into(m metricSet, window time.Duration) {
	m["live.replica.cmds_per_slot"] = ratio(rc.committed, rc.replicaSlots)
	m["live.replica.rounds_per_slot"] = ratio(rc.rounds, rc.replicaSlots)
	m["live.replica.sync_decision_frac"] = ratio(rc.syncDecisions, rc.replicaSlots)
	m["live.replica.slots_per_s"] = ratio(rc.replicaSlots/liveNodes, window.Seconds())
	m["livekv.group_skew"] = rc.groupSkew
}

// loadRun is one warm-up + window of the standard closed loop against a
// running service.
type loadRun struct {
	win       windowed
	edges     []boundary
	attempted int
	failed    int
	// growth of the replicas' counters and of the process's allocation
	// counters across the window (zero when no reader was given).
	counters    replicaCounters
	mallocs     float64
	mallocBytes float64
}

// runLoad drives the standard closed loop against svc. read, when not
// nil, samples the replicas' counters at the window's two outer edges.
func runLoad(l *loader, warm, window time.Duration, cpu func() cpuTime, read func() ([][]groupStatus, error)) (loadRun, []string) {
	l.start(0)
	var before, after runtime.MemStats
	var first, last replicaCounters
	edge, lastEdge := 0, subWindowsOf(window)
	atEdge := func() cpuTime {
		if read != nil && (edge == 0 || edge == lastEdge) {
			sts, err := read()
			if err == nil && edge == 0 {
				first = countersOf(sts)
				runtime.ReadMemStats(&before)
			} else if err == nil {
				last = countersOf(sts)
				runtime.ReadMemStats(&after)
			}
		}
		edge++
		return cpu()
	}
	edges := l.measure(warm, window, atEdge)
	l.halt()
	run := loadRun{win: l.windowStats(edges), edges: edges}
	var violations []string
	run.attempted, run.failed, violations = l.tally()
	run.counters = last.minus(first)
	run.mallocs = float64(after.Mallocs - before.Mallocs)
	run.mallocBytes = float64(after.TotalAlloc - before.TotalAlloc)
	return run, violations
}

// tempDir makes a fresh data directory under the run's scratch root.
func (e *env) tempDir(tag string) (string, error) {
	return os.MkdirTemp(e.scratch, tag+"-")
}

// runLive is the untraced pass of live_volatile, live_durable and
// live_lossy: livekv.NewCluster exactly as tests, hoserve -local and E12
// build it.
func (e *env) runLive(spec liveSpec, seed uint64, window time.Duration) (*passResult, error) {
	res := newPassResult(spec.name, false)

	// Set-up, repeated: a fresh deployment up to its first few commits
	// (coldStart). The last one is kept and measured.
	var setups []float64
	var cl *livekv.Cluster
	var dataDir string
	discard := func() {
		if cl != nil {
			cl.Close()
		}
		if dataDir != "" {
			os.RemoveAll(dataDir)
		}
	}
	defer discard()
	for i := 0; i < spec.setups; i++ {
		discard()
		cl, dataDir = nil, ""
		t0 := time.Now()
		if spec.durable {
			d, err := e.tempDir(spec.name)
			if err != nil {
				return nil, err
			}
			dataDir = d
		}
		var err error
		if cl, err = startCluster(spec, spec.config(dataDir), seed+uint64(i)); err != nil {
			return nil, err
		}
		if err := coldStart(clusterNodes(cl), inProcClients, liveNodes, seed+uint64(i), "setup"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	l := newLoader(clusterNodes(cl), inProcClients, liveNodes, seed, putFraction)
	run, violations := runLoad(l, e.scale(warmUp), window, selfCPU, nil)
	res.addLoad(run, violations)
	// ConvergedWithin is the agreement check (equal logs, equal states, no
	// divergent observation); the snapshot below only feeds the counters —
	// under loss a late round message may still open one more no-op slot.
	if err := cl.ConvergedWithin(convergeWait); err != nil {
		res.problem("convergence: %v", err)
	}
	sts, _ := nodeStatuses(clusterNodes(cl))() // in-process reads cannot fail

	res.Metrics["setup_s"] = medianOfMeans(setups, setupGroup)
	rc := countersOf(sts)
	res.note("load: %d closed-loop clients pinned to node c mod %d, %d keys/client, %d-byte values, %.0f%% PUT, deadline %v, warm-up %v, window %v; network: %s",
		inProcClients, liveNodes, keysPerClient, valueBytes, 100*putFraction, opDeadline, e.scale(warmUp), window, spec.network())
	res.note("set-up: %d fresh deployments (start, first commit through every node, then %d ops per client), median over groups of %d of the group mean (single set-ups: min %.4f s, max %.4f s)",
		spec.setups, setupOpsEach, setupGroup, slices.Min(setups), slices.Max(setups))
	res.note("group skew (max/min slots across groups) %.3f, rounds/slot %.2f, cmds/slot %.2f, sync-learned slots %.0f",
		rc.groupSkew, ratio(rc.rounds, rc.replicaSlots), ratio(rc.committed, rc.replicaSlots), rc.syncDecisions)
	return res, nil
}

// runLiveTraced is the traced pass: half the time on the real assembly
// (the reference for trace.overhead_frac), half on the decorated twin.
func (e *env) runLiveTraced(spec liveSpec, seed uint64, window time.Duration) (*passResult, error) {
	res := newPassResult(spec.name, true)
	half, warm := window/2, e.scale(warmUp)/2

	dataDir := ""
	if spec.durable {
		d, err := e.tempDir(spec.name + "-ref")
		if err != nil {
			return nil, err
		}
		dataDir = d
		defer os.RemoveAll(d)
	}
	cl, err := startCluster(spec, spec.config(dataDir), seed)
	if err != nil {
		return nil, err
	}
	nodes := clusterNodes(cl)
	l := newLoader(nodes, inProcClients, liveNodes, seed, putFraction)
	ref, violations := runLoad(l, warm, half, selfCPU, nodeStatuses(nodes))
	res.addLoad(ref, violations)
	if err := cl.ConvergedWithin(convergeWait); err != nil {
		res.problem("reference convergence: %v", err)
	}
	cl.Close()
	// Allocations per slot are measured here, without the tracer's own;
	// the loader's are included (it shares the process).
	slots := ref.counters.replicaSlots / liveNodes
	res.Metrics["live.replica.allocs_per_slot"] = ratio(ref.mallocs, slots)
	res.Metrics["live.replica.alloc_bytes_per_slot"] = ratio(ref.mallocBytes, slots)
	res.Metrics["proc.sys_cpu_ms_per_op"] = ref.win.sysMsPerOp

	traced, err := e.runTwin(res, spec, false, seed, warm, half, inProcClients)
	if err != nil {
		return nil, err
	}
	res.Metrics["trace.overhead_frac"] = 1 - ratio(traced, ref.win.opsPerS)
	res.note("untraced %.0f ops/s on livekv.NewCluster, traced %.0f ops/s on the twin", ref.win.opsPerS, traced)
	return res, nil
}

// runTwin drives the traced twin for one window, analyses its spans into
// res and returns its throughput.
func (e *env) runTwin(res *passResult, spec liveSpec, tcp bool, seed uint64, warm, window time.Duration, clients int) (float64, error) {
	dataDir := ""
	if spec.durable {
		d, err := e.tempDir(spec.name + "-twin")
		if err != nil {
			return 0, err
		}
		dataDir = d
		defer os.RemoveAll(d)
		res.Metrics["env.fsync_us_p50"] = probeFsync(d)
	}
	tw, err := newTwin(spec, tcp, dataDir, seed, clients)
	if err != nil {
		return 0, err
	}
	closed := false
	defer func() {
		if !closed {
			tw.close()
		}
	}()
	if err := firstCommit(tw, liveNodes, "twin"); err != nil {
		return 0, err
	}
	l := newLoader(tw, clients, liveNodes, seed, putFraction)
	l.epoch = tw.epoch // one clock for op spans, call spans and window edges
	run, violations := runLoad(l, warm, window, selfCPU, tw.statuses)
	res.Attempted += run.attempted
	res.Failed += run.failed
	for _, v := range violations {
		res.problem("stale read on the twin: %s", v)
	}
	if _, err := convergedWithin(convergeWait, tw.statuses); err != nil {
		res.problem("twin: %v", err)
	}
	var dropped float64
	for _, f := range tw.faults {
		dropped += float64(f.Dropped())
	}
	tw.close() // the timelines are read only once every replica has stopped
	closed = true

	tls, ops := tw.timelines(), tw.allOps()
	w0, w1 := run.edges[0].at, run.edges[len(run.edges)-1].at
	rep := analyze(tls, ops, w0, w1, run.counters.replicaSlots, roundTimeout)
	for name, v := range rep.metrics {
		res.Metrics[name] = v
	}
	run.counters.into(res.Metrics, time.Duration(w1-w0))
	// Whole-life ratios for what the decorators count without a clock.
	var saves, logBytes, sends, applied float64
	for _, tl := range tls {
		saves += float64(tl.saves)
		logBytes += float64(tl.logBytes)
		first, last := tl.slotWindows()
		applied += float64(max(len(first), len(last)))
		for _, c := range tl.calls {
			if c.kind == callSend {
				sends++
			}
		}
	}
	res.Metrics["wal.saves_per_slot"] = ratio(saves, applied)
	res.Metrics["wal.bytes_per_slot"] = ratio(logBytes, applied)
	res.Metrics["live.transport.drop_frac"] = ratio(dropped, sends+dropped)
	res.Notes = append(res.Notes, rep.budget.lines(res.Workload)...)
	if e.traceOut != "" {
		out := e.traceOutFor(res.Workload)
		if err := writeTrace(out, res.Workload, tw.epoch, tls, ops); err != nil {
			return 0, fmt.Errorf("trace file: %w", err)
		}
		res.note("spans written to %s", out)
	}
	return run.win.opsPerS, nil
}

// traceOutFor names one workload's trace file: -trace-out itself for a
// single workload, a per-workload sibling when the suite runs several.
func (e *env) traceOutFor(workload string) string {
	if e.single {
		return e.traceOut
	}
	ext := filepath.Ext(e.traceOut)
	return e.traceOut[:len(e.traceOut)-len(ext)] + "." + workload + ext
}
