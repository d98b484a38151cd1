// Core-level tests of forward + merge proposals (propose/merge in
// replicacore.go): the session-order rules the merge must keep, the
// choice among held batches, and exactly-once apply when one command
// reaches a proposer by three routes.

package live

import (
	"fmt"
	"testing"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/wal"
)

// mergeCore builds an idle LastVoting core of a 3-group.
func mergeCore(t *testing.T, self core.ProcessID, maxBatch int) *ReplicaCore[string] {
	t.Helper()
	c, err := NewReplicaCore(CoreConfig[string]{
		Self: self, N: 3,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
		MaxBatch:  maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ents builds entries from (client, seq) pairs; the command names both.
func ents(pairs ...[2]uint64) []Entry[string] {
	out := make([]Entry[string], len(pairs))
	for i, p := range pairs {
		out[i] = Entry[string]{Client: p[0], Seq: p[1], Cmd: fmt.Sprintf("c%d.%d", p[0], p[1])}
	}
	return out
}

func forwardEnv(from core.ProcessID, entries []Entry[string]) Envelope {
	return Envelope{Kind: KindForward, From: from, Payload: strCodec{}.AppendEntries(nil, entries)}
}

// offer hands c the contents of batch bid as a rider does, with no round
// message to hear: the batch is kept, and offered unless applied.
func offer(c *ReplicaCore[string], bid int64, entries []Entry[string]) {
	c.keepBatch(strCodec{}.AppendEntries(appendVarint(nil, bid), entries), 0)
}

// TestMergeKeepsSessionOrder is the table the issue's safety condition
// asks for. Each case loads a core (self = p0) with own pending
// commands, peers' forwards and peers' batches WITHOUT letting it start
// a slot, then reads what propose() would propose. Besides the exact
// expected batch, every result is checked against the rule itself: per
// client, the batch holds seqs hwm+1, hwm+2, … with no hole and no
// repeat.
func TestMergeKeepsSessionOrder(t *testing.T) {
	type kv = [2]uint64
	cases := []struct {
		name     string
		maxBatch int
		slot     uint64            // next slot (sets the rotation): 1 visits p1, p2, p0
		hwm      map[uint64]uint64 // applied high-water marks
		own      []kv              // p0's pending queue
		forwards map[core.ProcessID][]kv
		batches  map[int64][]kv // held peer batches, by id
		want     []kv
		wantID   int64 // nonzero: no new batch, this held id is proposed
	}{
		{
			name: "sources keep their order, visited from slot mod N",
			slot: 1,
			own:  []kv{{10, 1}, {10, 2}},
			forwards: map[core.ProcessID][]kv{
				1: {{11, 1}, {21, 1}, {11, 2}},
			},
			batches: map[int64][]kv{batchID(2, 4): {{12, 1}}},
			want:    []kv{{11, 1}, {21, 1}, {11, 2}, {12, 1}, {10, 1}, {10, 2}},
		},
		{
			name: "rotation moves with the slot",
			slot: 2,
			own:  []kv{{10, 1}},
			forwards: map[core.ProcessID][]kv{
				1: {{11, 1}},
				2: {{12, 1}},
			},
			want: []kv{{12, 1}, {10, 1}, {11, 1}},
		},
		{
			name: "only entries at or below the high-water mark are dropped",
			slot: 1,
			hwm:  map[uint64]uint64{11: 2, 12: 1},
			forwards: map[core.ProcessID][]kv{
				1: {{11, 1}, {11, 2}, {11, 3}, {11, 4}}, // a stale forward: its head has applied since
				2: {{12, 1}},                            // fully applied: contributes nothing
			},
			own:  []kv{{10, 1}},
			want: []kv{{11, 3}, {11, 4}, {10, 1}},
		},
		{
			name: "one command by forward, by offered batch and by own pending",
			slot: 1,
			own:  []kv{{10, 1}, {10, 2}},
			// p1 merged our forwarded (10,1) into its batch, and has since
			// forwarded a longer queue of its own.
			batches:  map[int64][]kv{batchID(1, 3): {{11, 1}, {10, 1}}},
			forwards: map[core.ProcessID][]kv{1: {{11, 1}, {11, 2}}},
			want:     []kv{{11, 1}, {10, 1}, {11, 2}, {10, 2}},
		},
		{
			name:     "MaxBatch cuts at a source's tail, never in front of kept entries",
			maxBatch: 3,
			slot:     1,
			own:      []kv{{10, 1}},
			forwards: map[core.ProcessID][]kv{
				1: {{11, 1}, {11, 2}},
				2: {{12, 1}, {12, 2}},
			},
			want: []kv{{11, 1}, {11, 2}, {12, 1}},
		},
		{
			name:     "the cut rotates: next slot it is another source's tail",
			maxBatch: 3,
			slot:     2,
			own:      []kv{{10, 1}},
			forwards: map[core.ProcessID][]kv{
				1: {{11, 1}, {11, 2}},
				2: {{12, 1}, {12, 2}},
			},
			want: []kv{{12, 1}, {12, 2}, {10, 1}},
		},
		{
			name:    "newest batch per proposer, by counter",
			slot:    1,
			batches: map[int64][]kv{batchID(1, 3): {{11, 1}}, batchID(1, 7): {{11, 1}, {11, 2}}},
			want:    []kv{{11, 1}, {11, 2}},
			wantID:  batchID(1, 7),
		},
		{
			name:     "a union that is one held batch proposes its id",
			slot:     1,
			hwm:      map[uint64]uint64{11: 1},
			batches:  map[int64][]kv{batchID(2, 9): {{11, 1}, {12, 1}, {11, 2}}},
			forwards: map[core.ProcessID][]kv{2: {{12, 1}}},
			want:     []kv{{12, 1}, {11, 2}},
			wantID:   batchID(2, 9),
		},
		{
			name:   "nothing to commit proposes the no-op",
			slot:   1,
			hwm:    map[uint64]uint64{11: 5},
			wantID: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mergeCore(t, 0, tc.maxBatch)
			for s := uint64(1); s < tc.slot; s++ {
				c.log = append(c.log, 0) // earlier slots decided the no-op
			}
			for client, seq := range tc.hwm {
				c.hwm[client], c.maxSeen[client] = seq, seq
			}
			var res StepResult[string]
			for bid, pairs := range tc.batches {
				offer(c, bid, ents(pairs...))
			}
			for from, pairs := range tc.forwards {
				c.handleEnvelope(forwardEnv(from, ents(pairs...)), &res)
			}
			for _, e := range ents(tc.own...) {
				if c.Accept(e.Client, e.Seq, e.Cmd) {
					t.Fatalf("own command %v refused as a duplicate", e)
				}
			}
			created := c.BatchesCreated()
			bid, _ := c.propose(tc.slot, true)

			if len(tc.want) == 0 {
				if bid != 0 {
					t.Fatalf("proposed %#x, want the no-op", bid)
				}
				return
			}
			got := c.batches[bid]
			if tc.wantID != 0 {
				if bid != tc.wantID || c.BatchesCreated() != created {
					t.Fatalf("proposed %#x (minted %d), want held batch %#x re-proposed",
						bid, c.BatchesCreated()-created, tc.wantID)
				}
				// A re-proposed batch keeps its applied head; compare what is left.
				var left []Entry[string]
				for _, e := range got {
					if e.Seq > c.hwm[e.Client] {
						left = append(left, e)
					}
				}
				got = left
			} else if batchProposer(bid) != 0 || c.BatchesCreated() != created+1 {
				t.Fatalf("proposed %#x, want one freshly minted batch of p0", bid)
			}
			checkRun(t, c, got, tc.want)
		})
	}
}

// checkRun compares a proposal with the expected entries and with the
// session-order rule itself: per client, seqs hwm+1, hwm+2, … with no
// hole and no repeat.
func checkRun(t *testing.T, c *ReplicaCore[string], got []Entry[string], wantPairs [][2]uint64) {
	t.Helper()
	if want := ents(wantPairs...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("proposal\n got %v\nwant %v", got, want)
	}
	next := map[uint64]uint64{}
	for _, e := range got {
		if next[e.Client] == 0 {
			next[e.Client] = c.hwm[e.Client] + 1
		}
		if e.Seq != next[e.Client] {
			t.Fatalf("client %d: seq %d where %d was due — session order broken in %v", e.Client, e.Seq, next[e.Client], got)
		}
		next[e.Client]++
	}
}

// TestProposeHasNoProposerBias pins the fix for "newest offered":
// raw batch ids carry the proposer index in their high bits, so
// max(id) always preferred p2's batch over p1's however old it was.
// With room for one command only, which held batch is proposed must
// follow the slot's rotation, not the proposer index — and among one
// proposer's batches the 40-bit counter decides.
func TestProposeHasNoProposerBias(t *testing.T) {
	load := func(slot uint64) *ReplicaCore[string] {
		c := mergeCore(t, 0, 1)
		for s := uint64(1); s < slot; s++ {
			c.log = append(c.log, 0)
		}
		offer(c, batchID(1, 9), ents([2]uint64{11, 1}))
		offer(c, batchID(1, 8), ents([2]uint64{11, 1}))
		offer(c, batchID(2, 1), ents([2]uint64{12, 1}))
		return c
	}
	var res StepResult[string]
	if got, _ := load(1).propose(1, true); got != batchID(1, 9) {
		want := batchID(1, 9)
		t.Fatalf("slot 1 proposed %#x, want p1's newest batch %#x", got, want)
	}
	if got, _ := load(2).propose(2, true); got != batchID(2, 1) {
		want := batchID(2, 1)
		t.Fatalf("slot 2 proposed %#x, want p2's batch %#x", got, want)
	}
	if len(res.Out) != 0 {
		t.Fatalf("re-proposing held ids broadcast something: %+v", res.Out)
	}

	// Recovery re-offers the replica's own durable batches next to the
	// peers': the recovered proposal covers its own NEWEST batch and p1's
	// and p2's commands, whatever the ids' high bits say.
	enc := func(pairs ...[2]uint64) []byte { return strCodec{}.AppendEntries(nil, ents(pairs...)) }
	rc, err := RestoreReplicaCore(CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
	}, &wal.State{
		BatchSeq: 2,
		Batches: map[int64][]byte{
			batchID(0, 1): enc([2]uint64{10, 1}),
			batchID(0, 2): enc([2]uint64{10, 1}, [2]uint64{10, 2}),
			batchID(1, 5): enc([2]uint64{11, 1}),
			batchID(2, 3): enc([2]uint64{12, 1}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res = StepResult[string]{}
	bid, _ := rc.propose(1, true)
	got := rc.batches[bid]
	want := ents([2]uint64{11, 1}, [2]uint64{12, 1}, [2]uint64{10, 1}, [2]uint64{10, 2})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered proposal\n got %v\nwant %v", got, want)
	}
}

// coreNet wires three cores with a lossless FIFO network and records
// every fresh apply per replica: how often, and in which slot.
type coreNet struct {
	t      *testing.T
	cores  []*ReplicaCore[string]
	queue  []Outbound
	fresh  []map[[2]uint64]int
	slotOf []map[[2]uint64]uint64
}

func newCoreNet(t *testing.T) *coreNet {
	n := &coreNet{t: t}
	for p := 0; p < 3; p++ {
		n.cores = append(n.cores, mergeCore(t, core.ProcessID(p), 0))
		n.fresh = append(n.fresh, map[[2]uint64]int{})
		n.slotOf = append(n.slotOf, map[[2]uint64]uint64{})
	}
	return n
}

func (n *coreNet) step(p core.ProcessID, ev Event[string]) {
	res := n.cores[p].Step(ev)
	for _, ae := range res.Applied {
		if ae.Fresh {
			n.fresh[p][[2]uint64{ae.Entry.Client, ae.Entry.Seq}]++
			n.slotOf[p][[2]uint64{ae.Entry.Client, ae.Entry.Seq}] = ae.Slot
		}
	}
	for _, o := range res.Out {
		for q := 0; q < len(n.cores); q++ {
			if to := core.ProcessID(q); to != p && (o.To == AllPeers || o.To == to) {
				n.queue = append(n.queue, Outbound{To: to, Env: o.Env})
			}
		}
	}
}

// deliver hands over the messages queued right now (not the ones their
// delivery produces).
func (n *coreNet) deliver() {
	batch := n.queue
	n.queue = nil
	for _, o := range batch {
		n.step(o.To, Event[string]{Kind: EvEnvelope, Env: o.Env})
	}
}

// take removes the queued messages match picks and returns them: lost, if
// the caller drops them; slow, if it steps them in later by hand.
func (n *coreNet) take(match func(Outbound) bool) (taken []Outbound) {
	kept := n.queue[:0]
	for _, o := range n.queue {
		if match(o) {
			taken = append(taken, o)
		} else {
			kept = append(kept, o)
		}
	}
	n.queue = kept
	return taken
}

func (n *coreNet) drain() {
	for i := 0; len(n.queue) > 0; i++ {
		if i > 1000 {
			n.t.Fatal("network never drained")
		}
		n.deliver()
	}
}

// TestForwardedCommandAppliesOnce runs the three-route case end to end.
// p1 accepts two commands while slot 1 is in flight — p2's round-1
// message asked it in, and its copy of p0's vote is slow: the first opens
// slot 2 at once (the window has room), the second finds the window full
// and leaves as a forward — so it reaches p0 as a forward, again inside
// the batch p1 mints for slot 3, and p0 has merged it into its own
// slot-3 batch by then. Every replica applies each (client, seq) fresh
// exactly once, and the counters show the path taken. b does not wait
// for slot 1 to finish before riding slot 2, so c, accepted a step later,
// finds slot 2's proposals already made and takes slot 3; d, accepted at
// p2, which decided slot 1 the moment the vote reached it, opens slot 2
// there and lands behind c, in slot 4.
func TestForwardedCommandAppliesOnce(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	slow := n.take(func(o Outbound) bool { return o.To == 1 })
	n.deliver() // p2 joins slot 1 on the vote and decides it
	for _, o := range n.take(func(o Outbound) bool { return o.To == 1 && o.Env.Kind == KindRound && o.Env.Round == 1 }) {
		n.step(1, Event[string]{Kind: EvEnvelope, Env: o.Env}) // p2's round-1 message asks p1 into slot 1
	}
	n.step(1, Event[string]{Kind: EvSubmit, Client: 11, Seq: 1, Cmd: "b"})
	n.step(1, Event[string]{Kind: EvSubmit, Client: 11, Seq: 2, Cmd: "c"})
	n.step(2, Event[string]{Kind: EvSubmit, Client: 12, Seq: 1, Cmd: "d"})
	n.queue = append(slow, n.queue...)
	n.drain()

	wantSlot := map[[2]uint64]uint64{{10, 1}: 1, {11, 1}: 2, {11, 2}: 3, {12, 1}: 4}
	for p, c := range n.cores {
		st := c.Counters()
		if st.Applied != 4 || st.Committed != 4 || st.Pending != 0 || st.Open != 0 {
			t.Fatalf("replica %d: applied %d slots, committed %d, pending %d, open %d; want 4, 4, 0, 0",
				p, st.Applied, st.Committed, st.Pending, st.Open)
		}
		for key, slot := range wantSlot {
			if n.fresh[p][key] != 1 || n.slotOf[p][key] != slot {
				t.Fatalf("replica %d applied %v fresh %d times, in slot %d; want once, in slot %d",
					p, key, n.fresh[p][key], n.slotOf[p][key], slot)
			}
		}
	}
	if f := n.cores[1].Counters().Forwards; f != 1 {
		t.Fatalf("p1 emitted %d forwards, want 1 (the submit that found the window full)", f)
	}
	if f := n.cores[0].Counters().Forwards; f != 0 {
		t.Fatalf("p0 emitted %d forwards; it could propose its command at once", f)
	}
	// p0 minted b and c into its slot-3 batch (slot 2, which decided p1's
	// b, had not applied, so the proposal starts at the first unapplied seq
	// of session 11 and overlaps), then c again with d into its slot-4
	// batch.
	if m := n.cores[0].Counters().Merged; m != 4 {
		t.Fatalf("p0 proposed %d commands on its peers' behalf, want 4 (b and c for slot 3; c and d for slot 4)", m)
	}
}

// TestRecoveryNeverReusesAForwardedSeq: a forward is the one way a
// command leaves a replica with nothing about it on disk. A replica
// that forwarded (client 11, seq 2), crashed, and handed seq 2 to a NEW
// command after the restart would see the old command — still in its
// peers' forward tables — apply under that number and acknowledge the
// new one's waiter. Recovery therefore numbers new commands past
// everything a lost forward can have carried.
func TestRecoveryNeverReusesAForwardedSeq(t *testing.T) {
	c := mergeCore(t, 1, 0)
	for i := 0; i < window; i++ {
		c.Step(Event[string]{Kind: EvSubmit, Client: 11, Seq: c.NextSeq(11), Cmd: "durable: minted into a batch of p1's own"})
	}
	seq := c.NextSeq(11)
	res := c.Step(Event[string]{Kind: EvSubmit, Client: 11, Seq: seq, Cmd: "forwarded with the window full, on no disk"})
	if len(res.Out) != 1 || res.Out[0].Env.Kind != KindForward {
		t.Fatalf("submit into a full window emitted %+v, want one forward", res.Out)
	}
	sent, err := strCodec{}.DecodeEntries(res.Out[0].Env.Payload)
	if err != nil || len(sent) != window+1 || sent[window].Seq != seq {
		t.Fatalf("forward carried %v (%v), want every pending command", sent, err)
	}

	rc := c.Recover()
	if got := rc.NextSeq(11); got <= seq {
		t.Fatalf("recovered replica would reuse seq %d (forwarded up to %d)", got, seq)
	}
	// A client the disk has never seen may have had its first commands
	// forwarded too.
	if got, floor := rc.NextSeq(99), uint64(rc.cfg.MaxBatch); got <= floor {
		t.Fatalf("unknown client starts at seq %d, want past %d", got, floor)
	}
	if got := mergeCore(t, 1, 0).NextSeq(99); got != 1 {
		t.Fatalf("a fresh replica starts a client at seq %d, want 1", got)
	}
}
