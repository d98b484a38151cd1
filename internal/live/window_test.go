// Core-level tests of the slot window (replicacore.go): slots opening
// while earlier ones run, in-order apply of out-of-order decisions,
// overlapping proposals and what they oblige the pruner to keep, and
// recovery of one vote per open slot. Everything runs on the lock-step
// harness of merge_test.go — cores stepped by hand over a lossless FIFO,
// no clocks.

package live

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"heardof/internal/core"
)

// pushed is one decision of a KindSync push: a slot, the batch id it
// decided, and that batch's entries (none for the no-op, id 0).
type pushed struct {
	slot    uint64
	bid     int64
	entries []Entry[string]
}

// syncEnv builds a KindSync pushing the given decisions, each with its
// batch, as pushDecisions encodes them.
func syncEnv(from core.ProcessID, ds ...pushed) Envelope {
	payload := appendUvarint(nil, uint64(len(ds)))
	for _, d := range ds {
		body := appendVarint(nil, d.bid)
		if d.bid != 0 {
			body = strCodec{}.AppendEntries(body, d.entries)
		}
		payload = append(appendUvarint(appendUvarint(payload, d.slot), uint64(len(body))), body...)
	}
	return Envelope{Kind: KindSync, From: from, Payload: payload}
}

// syncPullEnv builds the KindSyncPull of a peer whose next slot is from.
func syncPullEnv(from core.ProcessID, next uint64) Envelope {
	return Envelope{Kind: KindSyncPull, From: from, Payload: appendUvarint(nil, next)}
}

func openSlots(c *ReplicaCore[string]) []uint64 {
	var slots []uint64
	for _, sr := range c.OpenRounds(nil) {
		slots = append(slots, sr.Slot)
	}
	return slots
}

// pushCarries reports whether c, asked by p1 for the decisions from slot
// from on, answers with a push that carries bid's contents.
func pushCarries(c *ReplicaCore[string], from uint64, bid int64) bool {
	carries := false
	for _, o := range c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(1, from)}).Out {
		if o.Env.Kind == KindSync && o.To == 1 {
			SyncPairs(o.Env.Payload, func(_ uint64, b int64, pair []byte) bool {
				_, n := varint(pair)
				carries = carries || b == bid && n < len(pair)
				return true
			})
		}
	}
	return carries
}

// TestCommandRidesSlotOpenedWhileEarlierRuns is the point of the window:
// p1 accepts a command while slot 1 is in flight — its vote round waits
// for Coord(1), p0, which has not even heard of the slot yet — and
// instead of waiting slot 1 out it opens slot 2 on the spot, before slot 1
// has decided anywhere, and the command applies there.
func TestCommandRidesSlotOpenedWhileEarlierRuns(t *testing.T) {
	n := newCoreNet(t)
	n.step(1, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	n.step(1, Event[string]{Kind: EvSubmit, Client: 11, Seq: 1, Cmd: "b"})
	if got := openSlots(n.cores[1]); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("p1 has slots %v open after a mid-slot submit, want [1 2]", got)
	}
	for p, c := range n.cores {
		if c.NextSlot() != 1 || len(c.DecidedUnapplied()) != 0 {
			t.Fatalf("replica %d had decided slot 1 when slot 2 opened", p)
		}
	}
	if f := n.cores[1].Counters().Forwards; f != 0 {
		t.Fatalf("p1 forwarded a command it could propose itself (%d forwards)", f)
	}
	n.drain()
	for p := range n.cores {
		if a, b := n.slotOf[p][[2]uint64{10, 1}], n.slotOf[p][[2]uint64{11, 1}]; a != 1 || b != 2 {
			t.Fatalf("replica %d applied a in slot %d and b in slot %d, want 1 and 2", p, a, b)
		}
	}
	if st := n.cores[1].Counters(); st.Applied != 2 || st.Open != 0 {
		t.Fatalf("p1 ended with %d slots applied and %d open, want 2 and 0", st.Applied, st.Open)
	}
}

// TestDecisionsOutOfOrderApplyInOrder: a later window slot deciding
// first parks in the decided map; nothing applies until the slot below
// it decides, then both do, lowest first.
func TestDecisionsOutOfOrderApplyInOrder(t *testing.T) {
	c := mergeCore(t, 0, 0)
	x, y := batchID(1, 1), batchID(2, 1)
	res := c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{2, y, ents([2]uint64{12, 1})})})
	if len(res.Applied) != 0 || c.NextSlot() != 1 {
		t.Fatalf("slot 2 applied before slot 1 decided: %+v", res.Applied)
	}
	if d := c.DecidedUnapplied(); len(d) != 1 || d[2] != y {
		t.Fatalf("decided-unapplied = %v, want slot 2 parked", d)
	}
	res = c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, x, ents([2]uint64{11, 1})})})
	if len(res.Applied) != 2 || res.Applied[0].Slot != 1 || res.Applied[1].Slot != 2 ||
		res.Applied[0].Entry.Client != 11 || res.Applied[1].Entry.Client != 12 {
		t.Fatalf("applied %+v, want slot 1's command then slot 2's", res.Applied)
	}
	if c.NextSlot() != 3 || c.Counters().Open != 0 {
		t.Fatalf("next slot %d with %d open, want 3 and none", c.NextSlot(), c.Counters().Open)
	}
}

// TestBatchDecidedInTwoSlots: a replica asked into a slot with nothing
// new re-proposes a held id, so one id can be decided twice. It applies
// once (the second slot's entries are all stale), and the horizon prune
// of the earlier slot must leave the contents for whoever still has to
// apply the later one.
func TestBatchDecidedInTwoSlots(t *testing.T) {
	c := mergeCore(t, 0, 0)
	x, xs := batchID(1, 1), ents([2]uint64{11, 1}, [2]uint64{11, 2})
	res := c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, x, xs}, pushed{2, x, xs})})
	fresh := 0
	for _, ae := range res.Applied {
		if ae.Fresh {
			fresh++
			if ae.Slot != 1 {
				t.Fatalf("%+v applied fresh in slot %d", ae.Entry, ae.Slot)
			}
		}
	}
	if fresh != 2 || len(res.Applied) != 4 || c.Counters().Committed != 2 || c.NextSlot() != 3 {
		t.Fatalf("applied %+v (committed %d, next slot %d), want 2 fresh in slot 1, 2 stale in slot 2",
			res.Applied, c.Counters().Committed, c.NextSlot())
	}

	// Both peers have applied slot 1, neither slot 2: the horizon passes
	// the earlier decision only.
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(1, 2)})
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(2, 2)})
	if !pushCarries(c, 2, x) {
		t.Fatal("batch pruned with slot 1 although slot 2 decided it too and a peer has yet to apply it")
	}
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(1, 3)})
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(2, 3)})
	if c.HoldsBatch(x) {
		t.Fatal("batch still held after every replica applied both slots that decided it")
	}
}

// TestOpenProposalHeldAfterItsEntriesApplied: proposals of open slots
// overlap, so all of a proposal's entries can apply through another
// batch while the slot it was minted for still runs — and can still
// decide it. The pruner must keep it until that slot has applied; the
// proposal of the slot that HAS applied goes as before.
func TestOpenProposalHeldAfterItsEntriesApplied(t *testing.T) {
	c := mergeCore(t, 0, 0)
	for _, e := range ents([2]uint64{10, 1}, [2]uint64{10, 2}) {
		c.Step(Event[string]{Kind: EvSubmit, Client: e.Client, Seq: e.Seq, Cmd: e.Cmd})
	}
	a, b := batchID(0, 1), batchID(0, 2)
	if got := fmt.Sprint(c.batches[b]); got != fmt.Sprint(ents([2]uint64{10, 1}, [2]uint64{10, 2})) || c.Counters().Overlapped != 1 {
		t.Fatalf("slot 2's proposal is %v (overlapped %d), want it to start at the first unapplied seq", got, c.Counters().Overlapped)
	}

	// p1 merged our forwarded commands into its own slot-1 proposal, which
	// rides its round-1 message, and that is what slot 1 decides.
	m := batchID(1, 1)
	c.Step(Event[string]{Kind: EvEnvelope, Env: riderEnv(1, 1, 1, m, ents([2]uint64{10, 1}, [2]uint64{10, 2}))})
	res := c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, m, ents([2]uint64{10, 1}, [2]uint64{10, 2})})})
	if len(res.Applied) != 2 || c.Counters().Pending != 0 {
		t.Fatalf("slot 1 applied %+v, pending %d", res.Applied, c.Counters().Pending)
	}
	if got := openSlots(c); fmt.Sprint(got) != "[2]" {
		t.Fatalf("open slots %v, want slot 2 still running", got)
	}
	if !c.HoldsBatch(b) {
		t.Fatal("own proposal of open slot 2 pruned once its entries applied through slot 1's batch")
	}
	if c.HoldsBatch(a) {
		t.Fatal("losing proposal of applied slot 1 still held")
	}

	// Slot 2 decides it after all: every entry is stale, nothing breaks.
	res = c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{2, b, c.batches[b]})})
	for _, ae := range res.Applied {
		if ae.Fresh {
			t.Fatalf("%+v applied twice", ae.Entry)
		}
	}
	if c.NextSlot() != 3 {
		t.Fatalf("next slot %d, want 3", c.NextSlot())
	}
}

// TestBogusBatchStampDoesNotPinForever: the slot that keeps a batch
// comes off the wire — the slot of the round message it rides. A rider of
// a slot past the join range is kept (a straggler applies it once the
// decision reaches it) but pins nothing; one inside it keeps its batch
// until that slot has applied and no longer.
func TestBogusBatchStampDoesNotPinForever(t *testing.T) {
	c := mergeCore(t, 0, 0)
	x, y := batchID(1, 1), batchID(2, 1)
	far := riderEnv(1, 1<<60, 1, x, ents([2]uint64{11, 1}))
	c.Step(Event[string]{Kind: EvEnvelope, Env: far})
	if !c.HoldsBatch(x) || c.batchSlot[x] != 1 {
		t.Fatalf("far rider held %v until slot %d, want held until slot 1, which p0 opened proposing it", c.HoldsBatch(x), c.batchSlot[x])
	}
	last := uint64(2 * window) // the furthest slot a round message opens
	c.Step(Event[string]{Kind: EvEnvelope, Env: riderEnv(2, last, 1, y, ents([2]uint64{11, 1}))})
	if got := c.batchSlot[y]; got != last {
		t.Fatalf("rider of slot %d stamped %d", last, got)
	}
	// The command commits through x in slot 1; the slots up to the stamp
	// decide the no-op.
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, x, ents([2]uint64{11, 1})})})
	for slot := uint64(2); slot <= last; slot++ {
		if !c.HoldsBatch(y) {
			t.Fatalf("batch dropped with slot %d unapplied, inside the slots its rider stamped", slot)
		}
		c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(2, pushed{slot: slot})})
	}
	if c.NextSlot() != last+1 || c.HoldsBatch(y) || len(c.batchSlot) != 0 {
		t.Fatalf("next slot %d, batch held %v, %d stamps kept; want %d, false, 0",
			c.NextSlot(), c.HoldsBatch(y), len(c.batchSlot), last+1)
	}
}

// TestOverlapKeepsSessionOrder is merge_test.go's session-order table
// with a slot already open: what does the NEXT slot's proposal hold?
// Each case lets p0 open slot 1 with its first command, feeds it more by
// the three routes (own pending, a peer's forward, a peer's batch),
// optionally lets slot 1 apply somebody's batch, and then reads either
// the proposal of the last slot the core opened by itself, or — for a
// slot it had no reason to open — what propose() answers a peer asking.
func TestOverlapKeepsSessionOrder(t *testing.T) {
	type kv = [2]uint64
	cases := []struct {
		name     string
		maxBatch int
		own      []kv // accepted one step at a time; the first opens slot 1
		forwards map[core.ProcessID][]kv
		batches  map[int64][]kv
		decide1  int64    // nonzero: slot 1 decides this held batch
		wantOpen []uint64 // slots running afterwards
		want     []kv     // unapplied entries of the last open slot's proposal …
		asked    bool     // … or, asked into slot 2 by a peer, of what propose() re-proposes
		wantID   int64    // the id that proposal must have
	}{
		{
			name:     "own second command: the batch restarts at the first unapplied seq",
			own:      []kv{{10, 1}, {10, 2}},
			wantOpen: []uint64{1, 2},
			want:     []kv{{10, 1}, {10, 2}},
			wantID:   batchID(0, 2),
		},
		{
			name:     "a forward and an offered batch join, own open proposal repeated",
			own:      []kv{{10, 1}},
			forwards: map[core.ProcessID][]kv{2: {{12, 1}, {12, 2}}},
			batches:  map[int64][]kv{batchID(1, 4): {{11, 1}, {10, 1}}},
			wantOpen: []uint64{1, 2},
			want:     []kv{{12, 1}, {12, 2}, {10, 1}, {11, 1}},
			wantID:   batchID(0, 2),
		},
		{
			name:     "nothing our open proposal lacks: no second slot",
			own:      []kv{{10, 1}},
			forwards: map[core.ProcessID][]kv{1: {{10, 1}}}, // our own command, echoed back
			wantOpen: []uint64{1},
			want:     []kv{{10, 1}},
			wantID:   batchID(0, 1),
		},
		{
			name:     "asked in with nothing new: the open proposal's id again, no second copy",
			own:      []kv{{10, 1}},
			wantOpen: []uint64{1},
			asked:    true,
			want:     []kv{{10, 1}},
			wantID:   batchID(0, 1),
		},
		{
			name:     "MaxBatch cuts the overlap: what fits is all carried already, so no third slot",
			maxBatch: 2,
			own:      []kv{{10, 1}, {10, 2}, {10, 3}},
			wantOpen: []uint64{1, 2},
			want:     []kv{{10, 1}, {10, 2}},
			wantID:   batchID(0, 2),
		},
		{
			name:     "slot 1 applied a peer's batch with our head: slot 3 opens with the rest alone",
			own:      []kv{{10, 1}, {10, 2}, {10, 3}},
			batches:  map[int64][]kv{batchID(1, 1): {{10, 1}, {10, 2}}},
			decide1:  batchID(1, 1),
			wantOpen: []uint64{2, 3},
			want:     []kv{{10, 3}},
			wantID:   batchID(0, 3),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mergeCore(t, 0, tc.maxBatch)
			for _, e := range ents(tc.own...) {
				c.Step(Event[string]{Kind: EvSubmit, Client: e.Client, Seq: e.Seq, Cmd: e.Cmd})
			}
			// Peers' batches and forwards land together, then the core advances.
			var res StepResult[string]
			for bid, pairs := range tc.batches {
				offer(c, bid, ents(pairs...))
			}
			for from, pairs := range tc.forwards {
				c.handleEnvelope(forwardEnv(from, ents(pairs...)), &res)
			}
			c.Step(Event[string]{Kind: EvNudge})
			if tc.decide1 != 0 {
				c.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, tc.decide1, c.batches[tc.decide1]})})
			}
			if got := openSlots(c); fmt.Sprint(got) != fmt.Sprint(tc.wantOpen) {
				t.Fatalf("open slots %v, want %v", got, tc.wantOpen)
			}
			bid, created := c.open[len(c.open)-1].prop, c.BatchesCreated()
			if tc.asked {
				bid, _ = c.propose(2, true)
			}
			if bid != tc.wantID || c.BatchesCreated() != created {
				t.Fatalf("proposal %#x (minted %d more), want %#x and nothing minted", bid, c.BatchesCreated()-created, tc.wantID)
			}
			var left []Entry[string]
			for _, e := range c.batches[bid] {
				if e.Seq > c.hwm[e.Client] {
					left = append(left, e)
				}
			}
			checkRun(t, c, left, tc.want)
		})
	}
}

// TestCrashWithTwoSlotsOpenRestoresBothVotes: a replica that voted in
// two open slots and crashed comes back with both votes, and reopens
// both slots with them installed — one forgotten vote is one slot in
// which it could help decide against its own pre-crash quorum. The
// replica is p0, Coord(1) of every slot: born locked to its proposal, it
// is counted among the acks of every adopter of its vote, so its lock must
// survive like an adopter's. (At n = 3 an adopter decides as it adopts,
// so no other replica holds an undecided vote at ts 1.)
func TestCrashWithTwoSlotsOpenRestoresBothVotes(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 2, Cmd: "b"})
	before := n.cores[0].PersistState() // both votes are out: x locked at ts 1
	if len(before.Votes) != 2 || len(n.cores[0].DecidedUnapplied()) != 0 {
		t.Fatalf("p0 holds votes for %d slots mid-consensus, want 2", len(before.Votes))
	}

	rc := n.cores[0].Recover()
	if rc.Counters().Open != 0 {
		t.Fatal("round positions survived the crash")
	}
	rc.Step(Event[string]{Kind: EvNudge})
	if got := openSlots(rc); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("recovered replica reopened slots %v, want [1 2]", got)
	}
	// Both runs had sent in round 2 — p0 settles the vote round on its own
	// vote and sends its ack at once — so the slots resume in round 3.
	for _, sr := range rc.OpenRounds(nil) {
		if sr.Round != 3 {
			t.Fatalf("slot %d resumed in round %d, want 3", sr.Slot, sr.Round)
		}
	}
	// LastVoting's encoding starts with the locked vote (x, ts); the phase
	// flags behind it are volatile round state and reset by design.
	locked := func(record []byte) [2]int64 {
		_, state, _ := splitVote(record)
		x, n := binary.Varint(state)
		ts, _ := binary.Varint(state[n:])
		return [2]int64{x, ts}
	}
	after := rc.PersistState()
	for slot, vote := range before.Votes {
		if got, want := locked(after.Votes[slot]), locked(vote); got != want || want[1] != 1 {
			t.Fatalf("slot %d reopened with (x, ts) = %v, want the pre-crash lock %v at ts 1", slot, got, want)
		}
	}

	// The group finishes both slots with the recovered replica in it:
	// what was in flight from the old incarnation is gone, so a round of
	// timeouts restarts the exchange whenever the network falls silent.
	n.cores[0] = rc
	n.queue = nil
	for i := 0; i < 100 && n.cores[0].NextSlot() < 3; i++ {
		if len(n.queue) > 0 {
			n.deliver()
			continue
		}
		for _, p := range []core.ProcessID{0, 1, 2} {
			for _, slot := range openSlots(n.cores[p]) {
				n.step(p, Event[string]{Kind: EvRoundTimeout, Slot: slot})
			}
		}
	}
	n.drain()
	for p, c := range n.cores {
		if st := c.Counters(); st.Applied != 2 || st.Committed != 2 || st.Divergent != 0 {
			t.Fatalf("replica %d: applied %d, committed %d, divergent %d; want 2, 2, 0", p, st.Applied, st.Committed, st.Divergent)
		}
	}
}

// TestFaultFreeSlotTakesTwoRounds: LastVoting's first coordinator votes
// its proposal unasked in round 1 and every adopter decides on the acks
// of round 2 — the coordinator's counted, so p1 and p2 decide on entering
// it — so with nothing lost a slot is two rounds at every replica and 26
// envelopes in all: p0's vote and its ack naming the vote, sent together
// and each carrying the batch (2 + 2), two replicas joining with their
// round-1 nulls (4) and acking (4), three decision pushes sent as each
// replica decides (6), and 8 answers to round messages that reach a
// replica after it decided: p0's ack at p1 and at p2 (2), p1's null and
// ack at p2 (2), p2's null and ack at p0 and at p1 (4). p1's reach p0
// before it decides — its ack is what decides it — and draw none.
func TestFaultFreeSlotTakesTwoRounds(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	envelopes, lastRound := 0, core.Round(0)
	for len(n.queue) > 0 {
		envelopes += len(n.queue)
		for _, o := range n.queue {
			if o.Env.Kind == KindRound && o.Env.Round > lastRound {
				lastRound = o.Env.Round
			}
		}
		n.deliver()
	}
	for p, c := range n.cores {
		st := c.Counters()
		if st.Applied != 1 || st.Committed != 1 || st.Open != 0 {
			t.Fatalf("replica %d: applied %d, committed %d, open %d; want 1, 1, 0", p, st.Applied, st.Committed, st.Open)
		}
		if st.Rounds != 2 || st.SyncDecisions != 0 {
			t.Fatalf("replica %d closed %d rounds and took %d decisions from a sync; want 2 and its own", p, st.Rounds, st.SyncDecisions)
		}
	}
	if envelopes != 26 || lastRound != 2 {
		t.Fatalf("slot took %d envelopes and reached round %d, want 26 and 2", envelopes, lastRound)
	}
}

// TestVoteArrivesWithItsContents: a round message carries the batch it
// names, so a replica that adopts the vote holds its contents in the same
// step — p1 and p2 decide AND apply slot 1 on the vote alone — and a
// fault-free slot sends round messages and decision pushes, nothing else.
func TestVoteArrivesWithItsContents(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	for _, o := range n.take(func(o Outbound) bool { return o.Env.Kind == KindRound && o.Env.Round == 1 }) {
		n.step(o.To, Event[string]{Kind: EvEnvelope, Env: o.Env})
		if c := n.cores[o.To]; c.NextSlot() != 2 || !c.HoldsBatch(batchID(0, 1)) {
			t.Fatalf("replica %d heard the vote and is at slot %d, holding the batch %v; want slot 1 applied",
				o.To, c.NextSlot(), c.HoldsBatch(batchID(0, 1)))
		}
	}
	for i := 0; len(n.queue) > 0; i++ {
		for _, o := range n.queue {
			if o.Env.Kind != KindRound && o.Env.Kind != KindSync {
				t.Fatalf("replica %d sent a %d envelope in a fault-free slot", o.Env.From, o.Env.Kind)
			}
		}
		if i > 100 {
			t.Fatal("network never drained")
		}
		n.deliver()
	}
	for p := range n.cores {
		wantOwnDecision(t, n, core.ProcessID(p), 2)
	}
}

// TestMissedVoteAdoptsFromTheCoordinatorsAck: a replica that missed the
// vote hears it again — Coord(1)'s ack names its vote — adopts it in the
// ack round and decides there, counting itself beside Coord(1), in its own
// instance: no decision is taken from a sync push, and no round timeout
// fires anywhere in this test. When both p1 and p2 miss it, neither sends an ack, so their count is
// themselves and Coord(1) — and p0, which hears no ack, learns the slot
// from their push.
func TestMissedVoteAdoptsFromTheCoordinatorsAck(t *testing.T) {
	for _, missed := range [][]core.ProcessID{{2}, {1, 2}} {
		n := newCoreNet(t)
		n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
		lost := n.take(func(o Outbound) bool {
			return o.Env.Kind == KindRound && o.Env.Round == 1 && slices.Contains(missed, o.To)
		})
		if len(lost) != len(missed) {
			t.Fatalf("%v missing the vote: dropped %d messages, want exactly the vote to each", missed, len(lost))
		}
		n.drain()
		for p, c := range n.cores {
			st := c.Counters()
			if st.Applied != 1 || st.Committed != 1 || st.Open != 0 || st.Divergent != 0 {
				t.Fatalf("%v missing the vote: replica %d: applied %d, committed %d, open %d, divergent %d; want 1, 1, 0, 0",
					missed, p, st.Applied, st.Committed, st.Open, st.Divergent)
			}
			switch own := p != 0 || len(missed) == 1; {
			case own && (st.SyncDecisions != 0 || st.Rounds != 2):
				t.Fatalf("%v missing the vote: replica %d took %d decisions from a sync push in %d rounds, want its own, in 2",
					missed, p, st.SyncDecisions, st.Rounds)
			case !own && st.SyncDecisions != 1:
				t.Fatalf("%v missing the vote: replica 0 took %d decisions from a sync push, want the one it heard no ack for",
					missed, st.SyncDecisions)
			}
		}
	}
}

// The tests below are the round driver's fourth closing rule (node.go) —
// a round closes the moment its heard set decides — and the late-message
// rule that rides with it (handleRound).

// wantOwnDecision fails unless replica p committed the one command of a
// one-slot test in `rounds` rounds of its own instance.
func wantOwnDecision(t *testing.T, n *coreNet, p core.ProcessID, rounds int64) {
	t.Helper()
	st := n.cores[p].Counters()
	if st.Applied != 1 || st.Committed != 1 || st.Open != 0 || st.Divergent != 0 {
		t.Fatalf("replica %d: applied %d, committed %d, open %d, divergent %d; want 1, 1, 0, 0",
			p, st.Applied, st.Committed, st.Open, st.Divergent)
	}
	if st.Rounds != rounds || st.SyncDecisions != 0 {
		t.Fatalf("replica %d closed %d rounds and took %d decisions from a sync; want %d and its own",
			p, st.Rounds, st.SyncDecisions, rounds)
	}
}

// TestLostAckDecidesOnTheQuorum: p1's ack to p0 is lost, and its decision
// push with it. p0 holds its own ack and p2's — a majority, and it adopted
// the vote — so it decides in its own instance there and then. No round
// timeout is stepped anywhere in this test and nobody learns the slot by
// sync: p1's answer to p0's ack, queued behind p2's ack, arrives after p0
// has decided. (Waiting for all n, p0 sat in the ack round until a
// decider's push arrived.)
func TestLostAckDecidesOnTheQuorum(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	n.deliver() // p1, p2 join slot 1 on the vote, ack and decide: their acks and pushes on their way
	pushes := 0
	lost := n.take(func(o Outbound) bool {
		if o.To != 0 || o.Env.From != 1 {
			return false
		}
		if o.Env.Kind == KindSync {
			pushes++
			return pushes == 1 // p1's decision push; the second is its answer to p0's ack
		}
		return o.Env.Kind == KindRound && o.Env.Round == 2
	})
	if len(lost) != 2 {
		t.Fatalf("dropped %d messages, want exactly p1's ack to p0 and its push", len(lost))
	}
	n.drain()
	for p := range n.cores {
		wantOwnDecision(t, n, core.ProcessID(p), 2)
	}
}

// TestNonCoordinatorDecidesOneHopAfterTheVote: Coord(1)'s vote counts as
// its ack, so at n = 3 a non-coordinator's own ack completes a majority.
// p1 and p2 decide the moment the vote arrives — their vote rounds settle
// on it, one hop after the vote, before any ack has been delivered
// anywhere and without waiting for each other's round-1 message — and p0,
// in the ack round from the start (it settled the vote round on its own
// vote) and whose own round-2 message is its vote again, decides on the
// first ack it hears.
func TestNonCoordinatorDecidesOneHopAfterTheVote(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	if got := fmt.Sprint(n.cores[0].OpenRounds(nil)); got != "[{1 r2}]" {
		t.Fatalf("p0 opened the slot in rounds %s, want the ack round", got)
	}
	votes := n.take(func(o Outbound) bool { return o.Env.Kind == KindRound && o.Env.Round == 1 })
	for _, o := range votes {
		n.step(o.To, Event[string]{Kind: EvEnvelope, Env: o.Env})
	}
	wantOwnDecision(t, n, 1, 2)
	wantOwnDecision(t, n, 2, 2)

	if st := n.cores[0].Counters(); st.Committed != 0 || fmt.Sprint(n.cores[0].OpenRounds(nil)) != "[{1 r2}]" {
		t.Fatalf("p0 committed %d in rounds %v before hearing an ack, want 0 in the ack round", st.Committed, n.cores[0].OpenRounds(nil))
	}
	acks := n.take(func(o Outbound) bool { return o.To == 0 && o.Env.Kind == KindRound && o.Env.Round == 2 })
	if len(acks) != 2 {
		t.Fatalf("%d acks on their way to p0, want p1's and p2's", len(acks))
	}
	n.step(0, Event[string]{Kind: EvEnvelope, Env: acks[0].Env})
	wantOwnDecision(t, n, 0, 2)
}

// TestSilentReplicaCostsNoTimeout: p2 neither hears nor is heard for the
// whole slot, and no round needs its timer: the vote round settles on the
// vote — at p0 on entry, at p1 as it arrives — and the ack round on the
// two acks there are.
func TestSilentReplicaCostsNoTimeout(t *testing.T) {
	n := newCoreNet(t)
	silence := func() {
		n.take(func(o Outbound) bool { return o.To == 2 || o.Env.From == 2 })
	}
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	timeouts := 0
	for i := 0; i < 20 && (n.cores[0].NextSlot() < 2 || n.cores[1].NextSlot() < 2); i++ {
		if silence(); len(n.queue) > 0 {
			n.deliver()
			continue
		}
		for _, p := range []core.ProcessID{0, 1} {
			for _, sr := range n.cores[p].OpenRounds(nil) {
				timeouts++
				n.step(p, Event[string]{Kind: EvRoundTimeout, Slot: sr.Slot})
			}
		}
	}
	if timeouts != 0 {
		t.Fatalf("%d round timeouts stepped, want none", timeouts)
	}
	wantOwnDecision(t, n, 0, 2)
	wantOwnDecision(t, n, 1, 2)
}

// TestJumpIntoAckRoundDecidesOnEnter: p1 is still in the vote round —
// p2's round-1 message asked it into the slot, its copy of the vote is
// slow — when p0's ack arrives. The jump rule closes the vote round (p1
// adopts nothing there), and the ack round it enters holds p0's ack, which
// names the vote and carries its batch: p1 adopts it, counts itself beside
// Coord(1) — a majority — and decides and applies inside that one step,
// before p2's ack or decision push is delivered.
func TestJumpIntoAckRoundDecidesOnEnter(t *testing.T) {
	n := newCoreNet(t)
	toP1 := func(o Outbound) bool { return o.To == 1 }
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	slow := n.take(toP1)
	n.deliver() // p2 joins slot 1 on the vote, acks and decides
	rest := n.take(toP1)
	var ack Outbound
	for _, o := range slow {
		if o.Env.Kind == KindRound && o.Env.Round == 2 {
			ack = o
		}
	}
	for _, o := range rest {
		if o.Env.Kind == KindRound && o.Env.Round == 1 {
			n.step(1, Event[string]{Kind: EvEnvelope, Env: o.Env}) // p2's null asks p1 into the slot
		}
	}
	if len(slow) != 2 || ack.Env.Round != 2 || fmt.Sprint(n.cores[1].OpenRounds(nil)) != "[{1 r1}]" {
		t.Fatalf("held back %d messages of p0's for p1 with its ack %v, p1 in rounds %v; want the vote and the ack, p1 in round 1",
			len(slow), ack.Env.Round == 2, n.cores[1].OpenRounds(nil))
	}
	n.step(1, Event[string]{Kind: EvEnvelope, Env: ack.Env})
	wantOwnDecision(t, n, 1, 2)

	n.queue = append(n.queue, slow...)
	n.queue = append(n.queue, rest...)
	n.drain()
	for p := range n.cores {
		wantOwnDecision(t, n, core.ProcessID(p), 2)
	}
}

// TestLateRoundMessageDrawsOnePush: a round message for a slot decided
// here draws exactly one decision push to its sender, whatever its round —
// the last ack of the deciding round as much as a laggard's message from a
// later one — and whether this replica's own run decided the slot or it
// learned it by sync.
func TestLateRoundMessageDrawsOnePush(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	var ack Envelope // some round-2 message of slot 1, for its payload
	for len(n.queue) > 0 {
		for _, o := range n.queue {
			if o.Env.Kind == KindRound && o.Env.Round == 2 {
				ack = o.Env
			}
		}
		n.deliver()
	}
	wantOwnDecision(t, n, 0, 2)
	learner := mergeCore(t, 1, 0)
	learner.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(0,
		pushed{slot: 1, bid: batchID(0, 1), entries: []Entry[string]{{Client: 10, Seq: 1, Cmd: "a"}}})})
	if learner.NextSlot() != 2 {
		t.Fatalf("the learner is at slot %d after the push, want slot 1 applied", learner.NextSlot())
	}
	for _, tc := range []struct {
		how string
		c   *ReplicaCore[string]
	}{{"decided by its own run", n.cores[0]}, {"learned by sync", learner}} {
		for _, round := range []core.Round{1, 2, 3, 7} {
			env := ack
			env.From, env.Round = 2, round
			out := tc.c.Step(Event[string]{Kind: EvEnvelope, Env: env}).Out
			if len(out) != 1 || out[0].Env.Kind != KindSync || out[0].To != 2 || out[0].Env.Slot != 1 {
				t.Errorf("slot %s: a round-%d message from p2 drew %v, want one decision push to p2", tc.how, round, out)
			}
		}
	}
}

// pushedSlots lists the slots the KindSync envelopes among out carry, one
// list per push.
func pushedSlots(out []Outbound) [][]uint64 {
	var pushes [][]uint64
	for _, o := range out {
		if o.Env.Kind != KindSync {
			continue
		}
		var slots []uint64
		SyncPairs(o.Env.Payload, func(slot uint64, _ int64, _ []byte) bool {
			slots = append(slots, slot)
			return true
		})
		pushes = append(pushes, slots)
	}
	return pushes
}

// TestDecisionIsAnnouncedWhenMade: a replica pushes a decision of its own
// run to every peer in the step that makes it, whether or not the slot can
// apply yet. p1 hears p0's slot-2 vote first: it opens slots 1 and 2,
// decides slot 2 and pushes slot 2 in that step, with slot 1 still open. When slot 1's
// vote arrives it decides slot 1, and that push carries slots 1 and 2.
func TestDecisionIsAnnouncedWhenMade(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 2, Cmd: "b"})
	votes := n.take(func(o Outbound) bool { return o.To == 1 && o.Env.Kind == KindRound && o.Env.Round == 1 })
	if len(votes) != 2 || votes[0].Env.Slot != 1 || votes[1].Env.Slot != 2 {
		t.Fatalf("p0 sent p1 %d votes, want one for slot 1 and one for slot 2", len(votes))
	}
	p1 := n.cores[1]
	res := p1.Step(Event[string]{Kind: EvEnvelope, Env: votes[1].Env})
	if got := fmt.Sprint(pushedSlots(res.Out)); got != "[[2]]" || fmt.Sprint(openSlots(p1)) != "[1]" {
		t.Fatalf("slot 2's vote drew pushes of slots %s with slots %v open; want one push of slot 2, slot 1 open",
			got, openSlots(p1))
	}
	res = p1.Step(Event[string]{Kind: EvEnvelope, Env: votes[0].Env})
	if got := fmt.Sprint(pushedSlots(res.Out)); got != "[[1 2]]" || p1.NextSlot() != 3 {
		t.Fatalf("slot 1's vote drew pushes of slots %s and left p1 at slot %d; want one push of slots 1 and 2, both applied",
			got, p1.NextSlot())
	}
}

// The tests below are the join: a round message for a slot up to a window
// beyond this replica's opens every slot through it (handleRound,
// openThrough), and the message is heard in its run at once.

// roundEnv builds a round message (the null payload) of a slot.
func roundEnv(from core.ProcessID, slot uint64, round core.Round) Envelope {
	return riderEnv(from, slot, round, 0, nil)
}

// riderEnv builds a null round message of a slot carrying batch bid's
// entries (bid 0: none), as a proposer's first round message carries its
// fresh batch.
func riderEnv(from core.ProcessID, slot uint64, round core.Round, bid int64, entries []Entry[string]) Envelope {
	return Envelope{Slot: slot, Round: round, Kind: KindRound, From: from, Payload: roundPayload(nil, bid, entries)}
}

// pulls counts the KindSyncPulls a step addressed to peer.
func pulls(res StepResult[string], peer core.ProcessID) int {
	k := 0
	for _, o := range res.Out {
		if o.Env.Kind == KindSyncPull && o.To == peer {
			k++
		}
	}
	return k
}

// TestCoordinatorBehindVotesOnAPeersFirstMessage: p1 decides slots 1 and 2
// as p0's votes reach it and opens slot 3 for c, while p0, the coordinator,
// still waits for the acks. p1's round-1 message of slot 3 reaches p0 one
// window ahead: p0 pulls — it does lag — and in the same step joins slot 3
// and sends its vote, instead of waiting for its own decisions of slots 1
// and 2 to slide its window.
func TestCoordinatorBehindVotesOnAPeersFirstMessage(t *testing.T) {
	n := newCoreNet(t)
	for i, cmd := range []string{"a", "b", "c"} {
		n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: uint64(i + 1), Cmd: cmd})
	}
	n.deliver() // p1 and p2 decide slots 1 and 2 on p0's votes, apply both, and open slot 3 for c
	toP0 := n.take(func(o Outbound) bool { return o.To == 0 })
	var first Envelope
	for _, o := range toP0 {
		if o.Env.Kind == KindRound && o.Env.From == 1 && o.Env.Slot == 3 && o.Env.Round == 1 {
			first = o.Env
		}
	}
	if first.Slot != 3 || n.cores[0].NextSlot() != 1 {
		t.Fatalf("setup: p1 sent no round-1 message of slot 3, or p0 applied %d slots", n.cores[0].NextSlot()-1)
	}
	before := len(n.queue)
	n.step(0, Event[string]{Kind: EvEnvelope, Env: first})
	votes, pulled := 0, 0
	for _, o := range n.queue[before:] {
		if o.Env.Kind == KindRound && o.Env.Slot == 3 && o.Env.Round == 1 {
			votes++
		} else if o.Env.Kind == KindSyncPull && o.To == 1 {
			pulled++
		}
	}
	if votes != 2 || pulled != 1 {
		t.Fatalf("p0 one slot behind: sent %d copies of its slot-3 vote and %d pulls to p1; want the vote to both peers and one pull in the same step", votes, pulled)
	}
	if st := n.cores[0].Counters(); st.Joined != 1 || fmt.Sprint(openSlots(n.cores[0])) != "[1 2 3]" {
		t.Fatalf("p0 joined %d slots with %v open, want 1 and [1 2 3]", st.Joined, openSlots(n.cores[0]))
	}
	for _, o := range toP0 {
		if o.Env.Kind != KindRound || o.Env.From != 1 || o.Env.Slot != 3 || o.Env.Round != 1 {
			n.step(0, Event[string]{Kind: EvEnvelope, Env: o.Env})
		}
	}
	n.drain()
	for p, c := range n.cores {
		if st := c.Counters(); st.Applied != 3 || st.Committed != 3 || st.Open != 0 || st.Divergent != 0 {
			t.Fatalf("replica %d: applied %d, committed %d, open %d, divergent %d; want 3, 3, 0, 0",
				p, st.Applied, st.Committed, st.Open, st.Divergent)
		}
	}
}

// TestJoinReachesOneWindowOut: a round message for the last slot of the
// window after this one opens every slot through it; one for the slot
// after that opens nothing and draws only the pull. The votes of joined
// slots survive a restart like any other.
func TestJoinReachesOneWindowOut(t *testing.T) {
	c := mergeCore(t, 2, 0)
	res := c.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(0, 1+2*window, 1)})
	if len(res.Out) != 1 || pulls(res, 0) != 1 || len(c.open) != 0 || c.Counters().Joined != 0 {
		t.Fatalf("two windows out: %d envelopes, %d pulls, %d slots open, %d joined; want the pull alone",
			len(res.Out), pulls(res, 0), len(c.open), c.Counters().Joined)
	}
	res = c.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(0, 2*window, 1)})
	rounds := 0
	for _, o := range res.Out {
		if o.Env.Kind == KindRound {
			rounds++
		}
	}
	if pulls(res, 0) != 1 || rounds != 2*window || len(c.open) != 2*window || c.Counters().Joined != window {
		t.Fatalf("last slot of the next window: %d pulls, %d round messages, %d slots open, %d joined; want 1, %d, %d, %d",
			pulls(res, 0), rounds, len(c.open), c.Counters().Joined, 2*window, 2*window, window)
	}
	if heard := len(c.runFor(2 * window).heard); heard != 2 {
		t.Fatalf("joined slot's run heard %d messages, want the peer's and its own", heard)
	}
	if rc := c.Recover(); fmt.Sprint(rc.DecidedUnapplied()) != "map[]" || len(rc.restoredVotes) != 2*window {
		t.Fatalf("recovered %d votes, want one per open slot (%d)", len(rc.restoredVotes), 2*window)
	}
}

// TestCloneIsIndependentAcrossAJoinedRun: the checker forks a core per
// explored event, so a clone must own its joined runs — and the
// fingerprint must tell their heard sets apart.
func TestCloneIsIndependentAcrossAJoinedRun(t *testing.T) {
	c := mergeCore(t, 2, 0)
	c.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(0, 1+window, 1)})
	fp := string(c.AppendFingerprint(nil))
	d := c.Clone()
	if got := string(d.AppendFingerprint(nil)); got != fp {
		t.Fatal("a clone's fingerprint differs from the original's")
	}
	d.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(1, 1+window, 2)})
	if got := string(d.AppendFingerprint(nil)); got == fp {
		t.Fatal("a message heard in the clone's joined run left the fingerprint unchanged")
	}
	d.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(0, pushed{slot: 1})})
	if got := fmt.Sprint(openSlots(d)); got != "[2 3]" {
		t.Fatalf("clone has slots %s open after slot 1 applied, want [2 3]", got)
	}
	run := c.runFor(1 + window)
	if got := string(c.AppendFingerprint(nil)); got != fp || fmt.Sprint(openSlots(c)) != "[1 2 3]" ||
		run.r != 1 || len(run.heard) != 2 || len(run.future) != 0 {
		t.Fatal("stepping the clone changed the original")
	}
}

// TestJoinedPeerKeepsItsBatches: a round message for slot s proves only
// that its sender applied s−2·window — it may have joined s from a window
// behind. p0 has applied slots 1 … 4 and p1 has too; p2, at slot 1, joins
// slot 4 on p1's round message. Its round messages must not move p0's
// horizon past slot 1, whose batch p2 then pulls and applies.
func TestJoinedPeerKeepsItsBatches(t *testing.T) {
	p0, p2 := mergeCore(t, 0, 0), mergeCore(t, 2, 0)
	x, xs := batchID(1, 1), ents([2]uint64{11, 1})
	p0.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{1, x, xs}, pushed{slot: 2}, pushed{slot: 3}, pushed{slot: 4})})
	p0.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(1, 5)})
	if p0.NextSlot() != 5 || !p0.HoldsBatch(x) {
		t.Fatalf("setup: p0 at slot %d, holds slot 1's batch %v", p0.NextSlot(), p0.HoldsBatch(x))
	}
	joined := p2.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(1, 2*window, 1)})
	if p2.Counters().Joined != window {
		t.Fatalf("p2 joined %d slots, want %d", p2.Counters().Joined, window)
	}
	var pull Envelope
	for _, o := range joined.Out {
		if o.Env.Kind == KindRound {
			p0.Step(Event[string]{Kind: EvEnvelope, Env: o.Env})
		} else if o.Env.Kind == KindSyncPull {
			pull = o.Env
		}
	}
	if pa := p0.peerApplied[2]; pa > 0 {
		t.Fatalf("p0 took p2's round message of slot %d for %d applied slots, more than the %d it proves", 2*window, pa, 0)
	}
	if !p0.HoldsBatch(x) {
		t.Fatal("p0 pruned slot 1's batch while p2, which joined a slot ahead, had yet to apply it")
	}
	var applied []AppliedEntry[string]
	for _, o := range p0.Step(Event[string]{Kind: EvEnvelope, Env: pull}).Out {
		if o.Env.Kind == KindSync && o.To == 2 {
			applied = append(applied, p2.Step(Event[string]{Kind: EvEnvelope, Env: o.Env}).Applied...)
		}
	}
	if p2.NextSlot() != 5 || len(applied) != 1 || applied[0].Entry.Client != 11 || !applied[0].Fresh {
		t.Fatalf("p2 at slot %d applied %+v, want slot 1's command and slots 1 … 4", p2.NextSlot(), applied)
	}
	// Past two windows the inference still moves the horizon.
	p0.Step(Event[string]{Kind: EvEnvelope, Env: roundEnv(2, 4+2*window, 1)})
	if pa := p0.peerApplied[2]; pa != 4 {
		t.Fatalf("a round message of slot %d set p2's applied count to %d, want 4", 4+2*window, pa)
	}
}
