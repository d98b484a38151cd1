package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/live"
	"heardof/internal/rsm"
	"heardof/internal/wal"
)

// Latency percentiles must be the statistic every simulated-mode table
// uses: the same nearest-rank rule as rsm.Percentile, ulp guard included.
func TestPercentileMatchesRsm(t *testing.T) {
	for n := 0; n <= 120; n++ {
		ints := make([]int64, n)
		rounds := make([]core.Round, n)
		for i := range ints {
			ints[i], rounds[i] = int64(3*i+1), core.Round(3*i+1)
		}
		for _, q := range []float64{0, 0.07, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			if got, want := percentile(ints, q), int64(rsm.Percentile(rounds, q)); got != want {
				t.Fatalf("n=%d q=%v: percentile=%d, rsm.Percentile=%d", n, q, got, want)
			}
		}
	}
}

// medianOfMeans blends a bimodal sample within groups and still ignores a
// stalled group.
func TestMedianOfMeans(t *testing.T) {
	xs := []float64{1, 3, 1, 3, 1, 3, 100, 100, 1, 3, 9} // the trailing 9 fills no group
	if got := medianOfMeans(xs, 2); got != 2 {
		t.Fatalf("medianOfMeans = %v, want 2", got)
	}
	if got := medianOfMeans(nil, 5); got != 0 {
		t.Fatalf("medianOfMeans(nil) = %v, want 0", got)
	}
}

// The sub-window spread is the interquartile range over the median (what
// the benchmark contract applies across runs), so one stalled sub-window
// does not widen it; a window has one sub-window per second, at least 3.
func TestSpreadAndSubWindows(t *testing.T) {
	if got := spreadOf([]float64{10, 12, 8, 11, 9, 100, 10, 10}); got != 0.2 {
		t.Fatalf("spreadOf = %v, want 0.2", got)
	}
	if got := spreadOf(nil); got != 0 {
		t.Fatalf("spreadOf(nil) = %v, want 0", got)
	}
	for window, want := range map[time.Duration]int{30 * time.Second: 30, 6 * time.Second: 6, 2 * time.Second: 3} {
		if got := subWindowsOf(window); got != want {
			t.Errorf("subWindowsOf(%v) = %d, want %d", window, got, want)
		}
	}
}

// Self time is duration minus child coverage, with children clipped to
// the parent's interval and kinds kept apart.
func TestCoverageAndSelfTime(t *testing.T) {
	calls := []callSpan{
		span(callSend, 10, 20, 1),
		span(callSync, 20, 50, 1),
		span(callSend, 60, 70, 1),
		span(callApply, 90, 95, 1),
		span(callSend, 100, 130, 2),
	}
	cov := newCoverage(calls)
	for _, tc := range []struct {
		kind callKind
		a, b int64
		want int64
	}{
		{callSend, 0, 200, 50},
		{callSend, 15, 65, 10},    // clipped at both edges
		{callSend, 20, 60, 0},     // touches no send
		{callSend, 105, 110, 5},   // inside one span
		{callSync, 0, 25, 5},      // clipped on the right
		{callSync, 50, 60, 0},     // starts where the sync ended
		{callApply, 0, 200, 5},    //
		{callSnapshot, 0, 200, 0}, // a kind with no spans
		{callSend, 70, 70, 0},     // empty interval
	} {
		if got := cov.busy(tc.kind, tc.a, tc.b); got != tc.want {
			t.Errorf("busy(%s, %d, %d) = %d, want %d", callNames[tc.kind], tc.a, tc.b, got, tc.want)
		}
	}
	// Parent [15, 100): sends cover 5+10, the sync 30, the apply 5.
	if got := cov.selfTime(15, 100); got != 85-50 {
		t.Errorf("selfTime(15, 100) = %d, want 35", got)
	}
}

// The program under test only ever sees generated inputs: one seed, one
// stream, whatever the system answers.
func TestSameSeedSameOpStream(t *testing.T) {
	draw := func(seed uint64, client int) [][2]int {
		s := newOpStream(seed, client, putFraction)
		var out [][2]int
		for i := 0; i < 2000; i++ {
			k, put := s.next()
			p := 0
			if put {
				p = 1
			}
			out = append(out, [2]int{k, p})
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 3), draw(7, 3)) {
		t.Fatal("same seed and client produced different streams")
	}
	if reflect.DeepEqual(draw(7, 3), draw(8, 3)) || reflect.DeepEqual(draw(7, 3), draw(7, 4)) {
		t.Fatal("different seed or client produced the same stream")
	}
	puts := 0
	for _, op := range draw(7, 3) {
		if op[0] < 0 || op[0] >= keysPerClient {
			t.Fatalf("key %d outside [0, %d)", op[0], keysPerClient)
		}
		puts += op[1]
	}
	if puts < 900 || puts > 1100 {
		t.Fatalf("%d PUTs in 2000 ops, want about half", puts)
	}
}

// fakeService is a single-copy store that can be told to lie.
type fakeService struct {
	data    map[string]string
	stale   bool // serve the value before the last PUT
	prev    map[string]string
	failPut bool
}

func (f *fakeService) put(_ context.Context, _ *client, key, value string) error {
	if f.failPut {
		return errors.New("refused")
	}
	f.prev[key] = f.data[key]
	f.data[key] = value
	return nil
}

func (f *fakeService) get(_ context.Context, _ *client, key string) (string, bool, error) {
	if f.stale {
		v, ok := f.prev[key]
		return v, ok && v != "", nil
	}
	v, ok := f.data[key]
	return v, ok, nil
}

// The checker must pass an honest store, catch a stale read, and keep
// failed operations in the denominator without pinning their keys.
func TestLoaderChecksEveryRead(t *testing.T) {
	run := func(svc *fakeService) *client {
		c := newClient(0, 0, 42, putFraction)
		for i := 0; i < 3000; i++ {
			c.step(context.Background(), svc, time.Now())
		}
		return c
	}
	honest := run(&fakeService{data: map[string]string{}, prev: map[string]string{}})
	if len(honest.violations) != 0 || honest.failed != 0 || honest.attempted != 3000 || len(honest.recs) != 3000 {
		t.Fatalf("honest store: %d violations, %d failed, %d attempted, %d recorded", len(honest.violations), honest.failed, honest.attempted, len(honest.recs))
	}
	for _, v := range honest.last {
		if len(v) != valueBytes {
			t.Fatalf("value %q is %d bytes, want %d", v, len(v), valueBytes)
		}
	}
	if lying := run(&fakeService{data: map[string]string{}, prev: map[string]string{}, stale: true}); len(lying.violations) == 0 {
		t.Fatal("a store serving stale reads passed the linearizability check")
	}
	refusing := run(&fakeService{data: map[string]string{}, prev: map[string]string{}, failPut: true})
	if refusing.failed != refusing.attempted || len(refusing.recs) != 0 || len(refusing.violations) != 0 {
		t.Fatalf("refusing store: %d failed of %d attempted, %d recorded, %d violations", refusing.failed, refusing.attempted, len(refusing.recs), len(refusing.violations))
	}

	// A stale read reaches the exit status: the pass prints INCORRECT and
	// reports itself not correct.
	res := newPassResult("live_volatile", false)
	res.addLoad(loadRun{attempted: 10}, []string{"client 0 key c0-k1 read \"old\""})
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	ok, err := res.print()
	os.Stdout = stdout
	if err != nil || ok {
		t.Fatalf("a pass with a stale read printed ok=%v err=%v, want not ok", ok, err)
	}
}

// recordingPersister notes every call it receives, arguments included.
type recordingPersister struct {
	calls   []string
	syncErr error
}

func (r *recordingPersister) SaveBatch(bid int64, contents []byte) {
	r.calls = append(r.calls, fmt.Sprintf("SaveBatch(%d,%q)", bid, contents))
}
func (r *recordingPersister) SaveVote(slot uint64, state []byte) {
	r.calls = append(r.calls, fmt.Sprintf("SaveVote(%d,%q)", slot, state))
}
func (r *recordingPersister) SaveDecision(slot uint64, bid int64) {
	r.calls = append(r.calls, fmt.Sprintf("SaveDecision(%d,%d)", slot, bid))
}
func (r *recordingPersister) SaveApplied(slot uint64, bid int64, fresh []wal.ClientSeq) {
	r.calls = append(r.calls, fmt.Sprintf("SaveApplied(%d,%d,%v)", slot, bid, fresh))
}
func (r *recordingPersister) Sync() error {
	r.calls = append(r.calls, "Sync()")
	return r.syncErr
}
func (r *recordingPersister) Snapshot(st *wal.State) error {
	r.calls = append(r.calls, fmt.Sprintf("Snapshot(%d)", len(st.Log)))
	return nil
}

// The traced Persister is transparent: the exact call sequence reaches
// the store, results come back unchanged, and only dirty Syncs are spans.
func TestTracedPersisterForwardsEverything(t *testing.T) {
	inner := &recordingPersister{}
	tl := newTimeline(0, 0, time.Now())
	var p live.Persister = &tracedPersister{inner: inner, tl: tl}
	p.SaveBatch(7, []byte("batch"))
	p.SaveVote(3, []byte("vote"))
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil { // nothing saved since: forwarded, not a span
		t.Fatal(err)
	}
	p.SaveDecision(3, 7)
	p.SaveApplied(3, 7, []wal.ClientSeq{{Client: 1, Seq: 9}})
	inner.syncErr = errors.New("disk full")
	if err := p.Sync(); !errors.Is(err, inner.syncErr) {
		t.Fatalf("Sync error %v, want the store's own", err)
	}
	if err := p.Snapshot(&wal.State{Log: []int64{7, 0}}); err != nil {
		t.Fatal(err)
	}
	want := []string{`SaveBatch(7,"batch")`, `SaveVote(3,"vote")`, "Sync()", "Sync()", "SaveDecision(3,7)",
		"SaveApplied(3,7,[{1 9}])", "Sync()", "Snapshot(2)"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Fatalf("store saw %v, want %v", inner.calls, want)
	}
	var kinds []callKind
	for _, s := range tl.calls {
		kinds = append(kinds, s.kind)
	}
	if !reflect.DeepEqual(kinds, []callKind{callSync, callSync, callSnapshot}) || tl.saves != 4 || tl.calls[0].slot != 3 {
		t.Fatalf("recorded kinds %v, %d saves, first sync slot %d", kinds, tl.saves, tl.calls[0].slot)
	}
}

// fakeTransport records what is sent through it.
type fakeTransport struct {
	sent   []live.Envelope
	to     []core.ProcessID
	in     chan live.Envelope
	closed bool
}

func (f *fakeTransport) Send(to core.ProcessID, env live.Envelope) {
	f.to, f.sent = append(f.to, to), append(f.sent, env)
}
func (f *fakeTransport) Recv() <-chan live.Envelope { return f.in }
func (f *fakeTransport) Close() error               { f.closed = true; return errors.New("close result") }

// The traced Transport and Apply hook are transparent too.
func TestTracedLinkAndApplyForward(t *testing.T) {
	inner := &fakeTransport{in: make(chan live.Envelope, 1)}
	tl := newTimeline(1, 0, time.Now())
	var tr live.Transport = &tracedLink{inner: inner, tl: tl}
	env := live.Envelope{Group: 1, Slot: 300, Round: 2, From: 1, Kind: live.KindRound, Payload: []byte("payload")}
	tr.Send(2, env)
	if len(inner.sent) != 1 || inner.to[0] != 2 || !reflect.DeepEqual(inner.sent[0], env) {
		t.Fatalf("transport saw %v to %v, want %v to 2", inner.sent, inner.to, env)
	}
	if s := tl.calls[0]; s.kind != callSend || s.slot != 300 || s.round != 2 || s.envKind != live.KindRound ||
		int(s.bytes) != len(live.AppendEnvelope(nil, env)) {
		t.Fatalf("send span %+v does not describe %v (encoded %d bytes)", s, env, len(live.AppendEnvelope(nil, env)))
	}
	inner.in <- env
	if got := <-tr.Recv(); !reflect.DeepEqual(got, env) {
		t.Fatalf("Recv delivered %v", got)
	}
	if err := tr.Close(); err == nil || err.Error() != "close result" || !inner.closed {
		t.Fatalf("Close returned %v, inner closed=%v", err, inner.closed)
	}

	var seen []live.Entry[kvstore.Command]
	apply := tracedApply(tl, 2, func(slot uint64, e live.Entry[kvstore.Command]) any {
		seen = append(seen, e)
		return fmt.Sprintf("out%d.%d", slot, e.Seq)
	})
	own := live.Entry[kvstore.Command]{Client: 2, Seq: 5, Cmd: kvstore.Command{Op: kvstore.OpGet, Key: "k"}}
	other := live.Entry[kvstore.Command]{Client: 1, Seq: 9, Cmd: kvstore.Command{Op: kvstore.OpPut, Key: "k", Value: "v"}}
	if out := apply(300, own); out != "out300.5" {
		t.Fatalf("apply result %v", out)
	}
	apply(300, other)
	if !reflect.DeepEqual(seen, []live.Entry[kvstore.Command]{own, other}) {
		t.Fatalf("apply hook saw %v", seen)
	}
	if len(tl.ownApply) != 6 || tl.ownApply[5] == 0 || tl.calls[len(tl.calls)-1].kind != callApply {
		t.Fatalf("own apply times %v", tl.ownApply)
	}
}

// The twin's batch codec round-trips and rejects garbage.
func TestKVBatchCodec(t *testing.T) {
	entries := []live.Entry[kvstore.Command]{
		{Client: 1, Seq: 1, Cmd: kvstore.Command{Op: kvstore.OpPut, Key: "a", Value: "1"}},
		{Client: 3, Seq: 77, Cmd: kvstore.Command{Op: kvstore.OpGet, Key: "b"}},
	}
	enc := kvBatchCodec{}.AppendEntries(nil, entries)
	got, err := kvBatchCodec{}.DecodeEntries(enc)
	if err != nil || !reflect.DeepEqual(got, entries) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for _, bad := range [][]byte{nil, {0xff}, enc[:len(enc)-1], {1, 1, 0, 1}} {
		if _, err := (kvBatchCodec{}).DecodeEntries(bad); err == nil {
			t.Fatalf("decoded garbage %v", bad)
		}
	}
}

// The budget adds up on a complete trace and names the gap when spans are
// missing: ops no slot span could place, or rows that do not sum.
func TestBudgetGapDetection(t *testing.T) {
	var placed []opPhases
	for i := int64(0); i < 1000; i++ {
		ph := opPhases{phase: [3]int64{1000 + i, 2000 + 2*i, 100}}
		ph.lat = ph.phase[0] + ph.phase[1] + ph.phase[2]
		ph.busy[1][callSync] = 1500
		placed = append(placed, ph)
	}
	whole := budgetOf(placed, 1000)
	if whole.unattributed > 0.001 {
		t.Fatalf("complete trace reported %.3f unattributed", whole.unattributed)
	}
	if got := whole.lines("synthetic"); !bytes.Contains([]byte(got[len(got)-2]), []byte(": attributed")) {
		t.Fatalf("complete trace's verdict line: %q", got[len(got)-2])
	}
	var slotRow, syncRow, selfRow float64
	for i, row := range whole.rows {
		switch {
		case row.name == "slot":
			slotRow = row.us
		case row.name == "wal.sync" && whole.rows[i-2].name == "slot":
			syncRow = row.us
		case row.depth == 1 && i > 6 && row.name != "wal.sync" && row.us > 0:
			selfRow = row.us
		}
	}
	if syncRow != 1.5 || slotRow-syncRow-selfRow > 1e-9 || selfRow <= 0 {
		t.Fatalf("slot %.3f = wal.sync %.3f + self %.3f does not hold", slotRow, syncRow, selfRow)
	}

	// A fifth of the window's ops found no slot span.
	if missing := budgetOf(placed, 1250); missing.unattributed < 0.19 {
		t.Fatalf("250 of 1250 ops unplaced, reported %.3f unattributed", missing.unattributed)
	} else if got := missing.lines("synthetic"); !bytes.Contains([]byte(got[len(got)-2]), []byte("UNATTRIBUTED")) {
		t.Fatalf("verdict line does not name the gap: %q", got[len(got)-2])
	}
	// A layer's time left out of the phases: they no longer sum to the latency.
	for i := range placed {
		placed[i].lat += 1000
	}
	if short := budgetOf(placed, 1000); short.unattributed < 0.15 {
		t.Fatalf("phases 1000ns short of a ~4000ns latency, reported %.3f unattributed", short.unattributed)
	}
	if empty := budgetOf(nil, 10); empty.unattributed != 1 {
		t.Fatalf("no placed ops reported %.3f unattributed", empty.unattributed)
	}
}

// analyze places an op by (node, group, slot) and splits it at the
// slot's first round envelope and the command's own Apply.
func TestAnalyzePlacesOps(t *testing.T) {
	tl := newTimeline(0, 1, time.Now())
	send := func(start, end int64, slot uint64, round uint16, kind live.Kind) {
		s := span(callSend, start, end, slot)
		s.round, s.envKind, s.bytes = round, kind, 40
		tl.record(s)
	}
	send(90, 95, 0, 0, live.KindBatch)
	send(100, 110, 5, 1, live.KindRound)
	send(110, 120, 5, 1, live.KindRound)
	tl.record(span(callSync, 150, 450, 5))
	send(2100, 2110, 5, 2, live.KindRound)
	tl.record(span(callApply, 3000, 3010, 5))
	tl.ownApply = []int64{0, 0, 3010}
	ops := []opSpan{
		{node: 0, group: 1, slot: 5, seq: 2, submit: 40, ack: 3050},
		{node: 0, group: 1, slot: 6, seq: 3, submit: 50, ack: 3060}, // no span for slot 6
		{node: 0, group: 1, slot: 5, seq: 2, submit: 40, ack: 9999}, // acked outside the window
	}
	rep := analyze([]*timeline{tl}, ops, 0, 5000, 1, 2*time.Microsecond)
	m := rep.metrics
	if m["live.replica.queue_wait_us_p50"] != 0.06 || m["live.replica.slot_us_p50"] != 2.91 || m["live.replica.ack_us_p50"] != 0.04 {
		t.Fatalf("phases %v / %v / %v us, want 0.06 / 2.91 / 0.04", m["live.replica.queue_wait_us_p50"], m["live.replica.slot_us_p50"], m["live.replica.ack_us_p50"])
	}
	if rep.budget.placed != 1 || rep.budget.windowOps != 2 || rep.budget.unattributed != 0.5 {
		t.Fatalf("placed %d of %d, unattributed %v", rep.budget.placed, rep.budget.windowOps, rep.budget.unattributed)
	}
	// Round 1 lasted 2000 ns ≥ 0.9 × the 2000 ns timeout: a timeout round.
	if m["live.replica.round_us_p50"] != 2 || m["live.replica.timeout_round_frac"] != 1 {
		t.Fatalf("round %v us, timeout frac %v", m["live.replica.round_us_p50"], m["live.replica.timeout_round_frac"])
	}
	if m["wal.syncs_per_slot"] != 1 || m["live.transport.sends_per_slot"] != 4 || m["live.transport.bytes_per_slot"] != 160 {
		t.Fatalf("per-slot counts: syncs %v sends %v bytes %v", m["wal.syncs_per_slot"], m["live.transport.sends_per_slot"], m["live.transport.bytes_per_slot"])
	}
	// replica.slot [100, 3010) minus its sends (10+10+10), sync (300), apply (10).
	if m["live.replica.slot_self_us_p50"] != 2.57 {
		t.Fatalf("slot self time %v us, want 2.57", m["live.replica.slot_self_us_p50"])
	}
}

// hoserve's /stats lines parse into the same agreement state the
// in-process sources give, and disagreement is caught.
func TestStatsAgreement(t *testing.T) {
	body := "node 1 group 0 slots=120 log=0xdeadbeef state=0x1234 applied=240 committed=239 divergent=0 sync=7 pending=0 batches=2\n" +
		"node 1 group 1 slots=118 log=0xfeed state=0x99 applied=230 committed=230 divergent=0 sync=1 pending=3 batches=1\n"
	groups, err := parseStats(body)
	if err != nil || len(groups) != 2 {
		t.Fatalf("parseStats: %v, %v", groups, err)
	}
	want := groupStatus{slots: 120, logHash: 0xdeadbeef, state: fmt.Sprint(uint64(0x1234)), committed: 239, syncDecisions: 7}
	if groups[0] != want {
		t.Fatalf("first line parsed to %+v, want %+v", groups[0], want)
	}
	if _, err := parseStats("node x"); err == nil {
		t.Fatal("parsed a malformed /stats line")
	}
	same := [][]groupStatus{groups, append([]groupStatus(nil), groups...)}
	if err := agreement(same); err != nil {
		t.Fatalf("equal nodes disagree: %v", err)
	}
	for name, mutate := range map[string]func(*groupStatus){
		"log":       func(g *groupStatus) { g.logHash++ },
		"slots":     func(g *groupStatus) { g.slots++ },
		"state":     func(g *groupStatus) { g.state = "other" },
		"divergent": func(g *groupStatus) { g.divergent = 1 },
	} {
		other := append([]groupStatus(nil), groups...)
		mutate(&other[1])
		if agreement([][]groupStatus{groups, other}) == nil {
			t.Errorf("a differing %s was not caught", name)
		}
	}
	rc := countersOf(same)
	if rc.replicaSlots != 476 || rc.committed != 938 || rc.groupSkew != 120.0/118 {
		t.Fatalf("counters %+v", rc)
	}
}

// BENCHMARK.json is the registry, verbatim, and within the contract's
// limits; every workload has a runner.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Fatal("BENCHMARK.json differs from `hoperf -describe`; regenerate it")
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(got, &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics", n, len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v is duplicated or out of limits", m)
		}
		seen[m.Name] = true
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s has bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	// What BENCHMARK.json lists must wait on timers, not on the processors.
	for _, w := range workloads {
		spec, live := liveSpecs[w.Name]
		if w.Steady && !(live && (spec.delay > 0 || spec.lossy)) {
			t.Errorf("workload %s is listed as steady but does not wait on timers", w.Name)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" || d.Bound != 0 {
			t.Errorf("per-layer metric %s must say what it should move and carry no bound", d.Name)
		}
	}
	if _, err := (metricSet{"ops_per_sec": 1}).complete(endToEnd); err == nil {
		t.Error("a metric name outside the registry was accepted")
	}
}
