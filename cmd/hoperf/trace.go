package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"heardof/internal/live"
)

// The tracer lives entirely in this package: spans are recorded around
// the calls INTO each layer (Transport.Send, Persister.Sync/Snapshot, the
// Apply hook, the client's submit and wake), never inside one. Every span
// carries (node, group, slot); (group, slot) is the identifier one
// request's spans share across nodes (Envelope.Slot, SaveDecision(slot),
// Apply(slot), ApplyResult.Slot), so per-node records merge on it.

// callKind names a layer boundary a replica's event loop calls across.
type callKind uint8

const (
	callSend callKind = iota
	callSync
	callApply
	callSnapshot
	numCallKinds
)

var callNames = [numCallKinds]string{"transport.send", "wal.sync", "kvstore.apply", "wal.snapshot"}

// callSpan is one timed call out of a replica's event loop, packed into
// 32 bytes: a fault-free window records millions of them.
type callSpan struct {
	start   int64 // ns since the trace epoch
	slot    uint64
	dur     uint32 // ns, saturating (4.29 s: no call lasts that long)
	bytes   uint16 // send: encoded envelope size, saturating
	round   uint16 // send: Envelope.Round, saturating
	kind    callKind
	envKind live.Kind
}

func (s callSpan) end() int64 { return s.start + int64(s.dur) }

// span builds a callSpan from its two instants.
func span(kind callKind, start, end int64, slot uint64) callSpan {
	return callSpan{kind: kind, start: start, slot: slot, dur: uint32(min(end-start, 1<<32-1))}
}

// timeline is everything one (node, group) replica did across its layer
// boundaries, in order. One replica has one event-loop goroutine and
// every decorated call is made from it, so a timeline has a single
// writer and its spans never overlap; it is read only after the replica
// has stopped.
type timeline struct {
	node, group int
	epoch       time.Time
	calls       []callSpan

	saves    int64  // Persister.Save* calls
	dirty    bool   // a Save* since the last Sync
	saveSlot uint64 // slot of the latest slot-carrying Save*
	logBytes int64  // bytes the store's log grew by, summed over Syncs
	// ownApply[seq] is when this node's Apply hook returned for its own
	// client session's command seq (sessions are dense per replica).
	ownApply []int64
}

func (t *timeline) now() int64 { return int64(time.Since(t.epoch)) }

func (t *timeline) record(s callSpan) { t.calls = append(t.calls, s) }

// spanReserve is the capacity a timeline starts with, so that recording
// appends in place instead of copying a growing buffer mid-measurement.
// Reserved pages the run never touches are never resident.
const spanReserve = 1 << 20

func newTimeline(node, group int, epoch time.Time) *timeline {
	return &timeline{node: node, group: group, epoch: epoch, calls: make([]callSpan, 0, spanReserve)}
}

// slotWindows returns, per slot, when this replica sent the slot's first
// round envelope and when its last Apply for the slot returned: the
// "replica.slot" span. A slot the replica learned without running it, or
// one that applied nothing (a no-op batch), has only one of the two.
func (t *timeline) slotWindows() (first, last map[uint64]int64) {
	first, last = make(map[uint64]int64), make(map[uint64]int64)
	for _, s := range t.calls {
		switch {
		case s.kind == callSend && s.envKind == live.KindRound:
			if _, ok := first[s.slot]; !ok {
				first[s.slot] = s.start
			}
		case s.kind == callApply:
			last[s.slot] = s.end()
		}
	}
	return first, last
}

// opSpan is one client operation on the traced twin.
type opSpan struct {
	node, group int
	slot, seq   uint64
	submit, ack int64
}

// ---------------------------------------------------------------------
// Coverage arithmetic.

// coverage answers "how much of [a, b) did this timeline spend inside
// calls of one kind" in O(log n), from per-kind prefix sums over the
// timeline's own spans. Spans of one timeline are disjoint and ordered,
// so coverage is a sum, not a union.
type coverage struct {
	calls []callSpan
	idx   [numCallKinds][]int32 // positions in calls of each kind's spans
	cum   [numCallKinds][]int64 // cum[k][i] = total duration of kind k's first i spans
}

func newCoverage(calls []callSpan) *coverage {
	c := &coverage{calls: calls}
	var n [numCallKinds]int
	for _, s := range calls {
		n[s.kind]++
	}
	for k := range c.cum {
		c.idx[k] = make([]int32, 0, n[k])
		c.cum[k] = make([]int64, 1, n[k]+1)
	}
	for i, s := range calls {
		k := s.kind
		c.idx[k] = append(c.idx[k], int32(i))
		c.cum[k] = append(c.cum[k], c.cum[k][len(c.cum[k])-1]+int64(s.dur))
	}
	return c
}

// busy is the time within [a, b) covered by calls of kind k.
func (c *coverage) busy(k callKind, a, b int64) int64 {
	if b <= a {
		return 0
	}
	idx := c.idx[k]
	lo := sort.Search(len(idx), func(i int) bool { return c.calls[idx[i]].end() > a })
	hi := sort.Search(len(idx), func(i int) bool { return c.calls[idx[i]].start >= b })
	if lo >= hi {
		return 0
	}
	total := c.cum[k][hi] - c.cum[k][lo]
	if first := c.calls[idx[lo]]; first.start < a {
		total -= a - first.start
	}
	if last := c.calls[idx[hi-1]]; last.end() > b {
		total -= last.end() - b
	}
	return total
}

// selfTime is a span's duration minus the part of it its child calls
// cover.
func (c *coverage) selfTime(a, b int64) int64 {
	self := b - a
	for k := callKind(0); k < numCallKinds; k++ {
		self -= c.busy(k, a, b)
	}
	return self
}

// ---------------------------------------------------------------------
// Analysis of one traced window.

// traceReport is what the traced pass derives from the spans.
type traceReport struct {
	metrics metricSet
	budget  budget
}

// unattributedAbove is the budget gap the ROADMAP tolerates: beyond it a
// layer is missing from the attribution, and that is the finding.
const unattributedAbove = 0.10

// analyze derives the per-layer metrics and the latency budget from the
// spans of the window [w0, w1) (ns since the trace epoch).
//
// replicaSlots is the number of slots the replicas applied in the window,
// summed over replicas (their own Stats counters): the denominator of
// every per-slot ratio, so "per slot" reads "per slot on one replica".
func analyze(tls []*timeline, ops []opSpan, w0, w1 int64, replicaSlots float64, roundTimeout time.Duration) traceReport {
	rep := traceReport{metrics: metricSet{}}
	type key struct{ node, group int }
	covs := make(map[key]*coverage, len(tls))
	firsts := make(map[key]map[uint64]int64, len(tls))
	byKey := make(map[key]*timeline, len(tls))

	var sendDur, syncDur, applyDur, snapDur, roundDur, slotSelf []int64
	var sends, sendBytes, syncEnvs, timeoutRounds int64
	busyNs := [numCallKinds]int64{}
	for _, tl := range tls {
		k := key{tl.node, tl.group}
		byKey[k] = tl
		covs[k] = newCoverage(tl.calls)
		first, last := tl.slotWindows()
		firsts[k] = first
		var roundSlot uint64
		var roundNo uint16
		var roundAt int64
		for _, s := range tl.calls {
			in := s.start >= w0 && s.start < w1
			if in {
				busyNs[s.kind] += int64(s.dur)
			}
			switch s.kind {
			case callSend:
				if in {
					sends++
					sendBytes += int64(s.bytes)
					sendDur = append(sendDur, int64(s.dur))
					if s.envKind == live.KindSync || s.envKind == live.KindSyncPull {
						syncEnvs++
					}
				}
				if s.envKind != live.KindRound {
					continue
				}
				// A round lasts from its first send to the next round's
				// first send within the same slot.
				if s.slot == roundSlot && s.round == roundNo {
					continue
				}
				if s.slot == roundSlot && s.round == roundNo+1 && in {
					d := s.start - roundAt
					roundDur = append(roundDur, d)
					if float64(d) >= 0.9*float64(roundTimeout) {
						timeoutRounds++
					}
				}
				roundSlot, roundNo, roundAt = s.slot, s.round, s.start
			case callSync:
				if in {
					syncDur = append(syncDur, int64(s.dur))
				}
			case callApply:
				if in {
					applyDur = append(applyDur, int64(s.dur))
				}
			case callSnapshot:
				if in {
					snapDur = append(snapDur, int64(s.dur))
				}
			}
		}
		for slot, a := range first {
			if b, ok := last[slot]; ok && b > a && a >= w0 && b < w1 {
				slotSelf = append(slotSelf, covs[k].selfTime(a, b))
			}
		}
	}

	// Per-op phases: submit → first round envelope of the applying slot on
	// the submitting node → that node's Apply of the command → client wake.
	var placed []opPhases
	windowOps := 0
	for _, op := range ops {
		if op.ack < w0 || op.ack >= w1 {
			continue
		}
		windowOps++
		k := key{op.node, op.group}
		tl := byKey[k]
		firstRound, ok := firsts[k][op.slot]
		if tl == nil || !ok || op.seq >= uint64(len(tl.ownApply)) || tl.ownApply[op.seq] == 0 {
			continue
		}
		applied := tl.ownApply[op.seq]
		if firstRound < op.submit || applied < firstRound || op.ack < applied {
			continue
		}
		ph := opPhases{lat: op.ack - op.submit, phase: [3]int64{firstRound - op.submit, applied - firstRound, op.ack - applied}}
		for kind := callKind(0); kind < numCallKinds; kind++ {
			ph.busy[0][kind] = covs[k].busy(kind, op.submit, firstRound)
			ph.busy[1][kind] = covs[k].busy(kind, firstRound, applied)
		}
		placed = append(placed, ph)
	}
	column := func(f func(opPhases) int64) []int64 {
		out := make([]int64, len(placed))
		for i, ph := range placed {
			out[i] = f(ph)
		}
		return out
	}
	lat := column(func(p opPhases) int64 { return p.lat })
	qw := column(func(p opPhases) int64 { return p.phase[0] })
	sl := column(func(p opPhases) int64 { return p.phase[1] })
	ack := column(func(p opPhases) int64 { return p.phase[2] })

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	loops := float64(len(tls))
	windowNs := float64(w1 - w0)
	m := rep.metrics
	m["live.replica.queue_wait_us_p50"] = us(quantile(qw, 0.50))
	m["live.replica.queue_wait_us_p99"] = us(quantile(qw, 0.99))
	m["live.replica.slot_us_p50"] = us(quantile(sl, 0.50))
	m["live.replica.slot_us_p99"] = us(quantile(sl, 0.99))
	m["live.replica.slot_self_us_p50"] = us(quantile(slotSelf, 0.50))
	m["live.replica.ack_us_p50"] = us(quantile(ack, 0.50))
	m["live.replica.round_us_p50"] = us(quantile(roundDur, 0.50))
	m["live.replica.timeout_round_frac"] = ratio(float64(timeoutRounds), float64(len(roundDur)))
	m["livekv.op_us_p50"] = us(quantile(lat, 0.50))
	m["live.transport.sends_per_slot"] = ratio(float64(sends), replicaSlots)
	m["live.transport.bytes_per_slot"] = ratio(float64(sendBytes), replicaSlots)
	m["live.transport.send_us_p50"] = us(quantile(sendDur, 0.50))
	m["live.transport.send_busy_frac"] = ratio(float64(busyNs[callSend]), windowNs*loops)
	m["live.transport.sync_env_frac"] = ratio(float64(syncEnvs), float64(sends))
	m["wal.syncs_per_slot"] = ratio(float64(len(syncDur)), replicaSlots)
	m["wal.sync_us_p50"] = us(quantile(syncDur, 0.50))
	m["wal.sync_us_p99"] = us(quantile(syncDur, 0.99))
	m["wal.sync_busy_frac"] = ratio(float64(busyNs[callSync]), windowNs*loops)
	m["wal.snapshot_ms_p50"] = us(quantile(snapDur, 0.50)) / 1e3
	m["kvstore.apply_ns_p50"] = float64(quantile(applyDur, 0.50))
	m["kvstore.apply_busy_frac"] = ratio(float64(busyNs[callApply]), windowNs*loops)

	rep.budget = budgetOf(placed, windowOps)
	m["trace.unattributed_frac"] = rep.budget.unattributed
	return rep
}

// opPhases is one placed operation: its latency, its three phases
// (queue_wait, slot, ack — they telescope to the latency) and, for the
// first two, how long the replica's loop spent inside each layer call.
type opPhases struct {
	lat   int64
	phase [3]int64
	busy  [2][numCallKinds]int64
}

var phaseNames = [3]string{"queue_wait", "slot", "ack"}

// budget is the latency budget of the median operation.
type budget struct {
	rows         []budgetRow
	opP50us      float64 // median latency of the placed ops
	bandUs       float64 // mean latency of the median band
	sumUs        float64 // sum of the band's phase rows
	sumP50us     float64 // sum of the three phase medians, for reference
	placed       int
	windowOps    int
	unattributed float64
}

// budgetRow is one line of the printed budget.
type budgetRow struct {
	name  string
	us    float64
	depth int
}

// budgetOf attributes the median operation's latency. Medians of phases
// are taken over different operations and need not add up, so the rows
// are means over the median band — the placed ops whose latency lies
// between the 40th and 60th percentile — where every op's phases sum to
// its own latency. What can then be missing is spans: a window op that no
// slot span could place has no layer's name on its latency. unattributed
// is the larger of that share and the band's own row gap.
func budgetOf(placed []opPhases, windowOps int) budget {
	b := budget{placed: len(placed), windowOps: windowOps}
	if len(placed) == 0 {
		b.unattributed = 1
		return b
	}
	lats := make([]int64, len(placed))
	var phaseCols [3][]int64
	for i, ph := range placed {
		lats[i] = ph.lat
		for j := range phaseCols {
			phaseCols[j] = append(phaseCols[j], ph.phase[j])
		}
	}
	sorted := sortedCopy(lats)
	lo, hi := percentile(sorted, 0.40), percentile(sorted, 0.60)
	b.opP50us = float64(percentile(sorted, 0.50)) / 1e3
	var band, latSum float64
	var phaseSum [3]float64
	var busySum [2][numCallKinds]float64
	for _, ph := range placed {
		if ph.lat < lo || ph.lat > hi {
			continue
		}
		band++
		latSum += float64(ph.lat)
		for j := range phaseSum {
			phaseSum[j] += float64(ph.phase[j])
		}
		for j := range busySum {
			for k := range busySum[j] {
				busySum[j][k] += float64(ph.busy[j][k])
			}
		}
	}
	b.bandUs = latSum / band / 1e3
	for j, name := range phaseNames {
		us := phaseSum[j] / band / 1e3
		b.sumUs += us
		b.sumP50us += float64(quantile(phaseCols[j], 0.50)) / 1e3
		b.rows = append(b.rows, budgetRow{name: name, us: us})
		if j == 2 {
			break
		}
		self := us
		for k := callKind(0); k < numCallKinds; k++ {
			child := busySum[j][k] / band / 1e3
			self -= child
			b.rows = append(b.rows, budgetRow{name: callNames[k], us: child, depth: 1})
		}
		b.rows = append(b.rows, budgetRow{name: "self (rounds, peers, scheduling)", us: self, depth: 1})
	}
	gap := 1 - ratio(b.sumUs, b.bandUs)
	if gap < 0 {
		gap = -gap
	}
	b.unattributed = max(gap, 1-ratio(float64(b.placed), float64(windowOps)))
	return b
}

// lines renders the budget for the report.
func (b budget) lines(workload string) []string {
	lines := []string{
		fmt.Sprintf("budget %s: the median op on the traced twin (mean over the ops within the 40th-60th latency percentile)", workload),
		fmt.Sprintf("  %-46s %10.1f us  (op p50 %.1f us)", "op latency", b.bandUs, b.opP50us)}
	for _, row := range b.rows {
		indent := "  - "
		if row.depth > 0 {
			indent = "      . "
		}
		lines = append(lines, fmt.Sprintf("%-48s %10.1f us  %5.1f%%", indent+row.name, row.us, 100*ratio(row.us, b.bandUs)))
	}
	verdict := "attributed"
	if b.unattributed > unattributedAbove {
		verdict = fmt.Sprintf("UNATTRIBUTED %.1f%%", 100*b.unattributed)
	}
	lines = append(lines, fmt.Sprintf("  %-46s %10.1f us  %d of %d window ops placed on a slot span: %s",
		"sum of the rows", b.sumUs, b.placed, b.windowOps, verdict))
	lines = append(lines, fmt.Sprintf("  %-46s %10.1f us  (medians of different ops need not add up)", "for reference, sum of the phase p50s", b.sumP50us))
	return lines
}

// ---------------------------------------------------------------------
// The trace file.

// traceSpan is one span of the -trace-out file. Parent is the id of the
// span that caused it (0 for a root): an "op" root has the phases
// "queue_wait", "slot" and "ack" as children; a "replica.slot" root (one
// per node, group and slot, first round envelope → last Apply) has that
// replica's layer calls as children. Join the two on (node, group, slot).
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Node    int    `json:"node"`
	Group   int    `json:"group"`
	Slot    uint64 `json:"slot"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace streams every span of one traced pass to path as a JSON
// object {"workload", "epoch_unix_ns", "spans": [...]}.
func writeTrace(path, workload string, epoch time.Time, tls []*timeline, ops []opSpan) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"spans\":[\n", workload, epoch.UnixNano())
	id := 0
	firsts := make(map[[2]int]map[uint64]int64, len(tls))
	emit := func(parent int, name string, node, group int, slot uint64, start, end int64) int {
		id++
		b, _ := json.Marshal(traceSpan{id, parent, name, node, group, slot, start, end}) // a struct of ints and strings cannot fail to marshal
		if id > 1 {
			w.WriteString(",\n")
		}
		w.Write(b)
		return id
	}
	for _, tl := range tls {
		// Slot roots first (calls are in time order, so a slot's window is
		// known once its last Apply is seen), then the calls under them.
		first, last := tl.slotWindows()
		firsts[[2]int{tl.node, tl.group}] = first
		slots := make([]uint64, 0, len(last))
		for slot, end := range last {
			if start, ok := first[slot]; ok && end > start {
				slots = append(slots, slot)
			}
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		roots := make([]int, len(slots))
		for i, slot := range slots {
			roots[i] = emit(0, "replica.slot", tl.node, tl.group, slot, first[slot], last[slot])
		}
		cur := 0
		for _, s := range tl.calls {
			for cur < len(slots) && last[slots[cur]] <= s.start {
				cur++
			}
			parent := 0
			if cur < len(slots) && s.start >= first[slots[cur]] && s.end() <= last[slots[cur]] {
				parent = roots[cur]
			}
			emit(parent, callNames[s.kind], tl.node, tl.group, s.slot, s.start, s.end())
		}
	}
	byKey := make(map[[2]int]*timeline, len(tls))
	for _, tl := range tls {
		byKey[[2]int{tl.node, tl.group}] = tl
	}
	for _, op := range ops {
		root := emit(0, "op", op.node, op.group, op.slot, op.submit, op.ack)
		tl := byKey[[2]int{op.node, op.group}]
		if tl == nil || op.seq >= uint64(len(tl.ownApply)) || tl.ownApply[op.seq] == 0 {
			continue
		}
		applied := tl.ownApply[op.seq]
		firstRound, ok := firsts[[2]int{op.node, op.group}][op.slot]
		if !ok || firstRound < op.submit || applied < firstRound {
			continue
		}
		emit(root, "queue_wait", op.node, op.group, op.slot, op.submit, firstRound)
		emit(root, "slot", op.node, op.group, op.slot, firstRound, applied)
		emit(root, "ack", op.node, op.group, op.slot, applied, op.ack)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
