package live

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/wal"
)

// starvingLink is a sender-side filter that keeps one replica from ever
// hearing a round message: every one to victim is dropped — the batches
// ride them — so it takes part in no slot's consensus and learns each slot
// from a decider's push.
type starvingLink struct {
	Transport
	victim core.ProcessID
}

func (l starvingLink) Send(to core.ProcessID, env Envelope) {
	if to == l.victim && env.Kind == KindRound {
		return
	}
	l.Transport.Send(to, env)
}

// TestStarvedReplicaAppliesFromPushesAlone: replica 2 hears no round
// message, so no vote and no rider reaches it, and its heartbeat is an
// hour away. It still applies every slot the other two commit, every one
// learned by sync: a decision push carries the batches of the slots it
// names, so the eager push of a decider is all a replica needs to apply.
func TestStarvedReplicaAppliesFromPushesAlone(t *testing.T) {
	const n, victim, cmds = 3, 2, 20
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reps := make([]*Replica[string], n)
	for p := 0; p < n; p++ {
		var tr Transport = net.Transport(core.ProcessID(p))
		if p != victim {
			tr = starvingLink{Transport: tr, victim: victim}
		}
		reps[p], err = NewReplica(ReplicaConfig[string]{
			Self: core.ProcessID(p), N: n,
			Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}, Batch: strCodec{},
			Transport:    tr,
			RoundTimeout: time.Millisecond,
			SyncEvery:    time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reps {
		r.Start()
		defer r.Stop()
	}
	for i := 0; i < cmds; i++ {
		ch, _ := reps[i%2].SubmitNext(uint64(1+i%2), fmt.Sprintf("c%d", i))
		waitApplied(t, ch, 5*time.Second, fmt.Sprintf("command %d at its proposer", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for reps[victim].Stats().Committed < cmds {
		if time.Now().After(deadline) {
			t.Fatalf("victim committed %d of %d commands: pushes did not bring the starved replica along",
				reps[victim].Stats().Committed, cmds)
		}
		time.Sleep(time.Millisecond)
	}
	if st := reps[victim].Stats(); st.SyncDecisions != int(st.Applied) || st.Divergent != 0 {
		t.Fatalf("victim learned %d of %d slots by sync, %d divergent; want all, 0", st.SyncDecisions, st.Applied, st.Divergent)
	}
}

// TestPushCarriesItsBatches: p2 loses every round message — p0's vote and
// its ack with them — so it neither adopts the vote nor holds the batch.
// The eager push of the first decider carries the batch, and p2 applies
// slot 1 in the step that hears the push.
func TestPushCarriesItsBatches(t *testing.T) {
	n := newCoreNet(t)
	n.step(0, Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	p2 := n.cores[2]
	for i := 0; ; i++ {
		n.take(func(o Outbound) bool { return o.To == 2 && o.Env.Kind == KindRound })
		if push := n.take(func(o Outbound) bool { return o.To == 2 && o.Env.Kind == KindSync }); len(push) > 0 {
			if p2.NextSlot() != 1 || p2.HoldsBatch(batchID(0, 1)) {
				t.Fatalf("p2 at slot %d holding the batch %v before any push reached it", p2.NextSlot(), p2.HoldsBatch(batchID(0, 1)))
			}
			n.step(2, Event[string]{Kind: EvEnvelope, Env: push[0].Env})
			if st := p2.Counters(); st.Applied != 1 || st.Committed != 1 || st.SyncDecisions != 1 {
				t.Fatalf("p2 applied %d slots, committed %d, learned %d by sync in the step that heard the push; want 1, 1, 1",
					st.Applied, st.Committed, st.SyncDecisions)
			}
			return
		}
		if len(n.queue) == 0 || i > 10 {
			t.Fatal("no decision push ever left for p2")
		}
		n.deliver()
	}
}

// TestPushStopsAtFrameAndAtAnUnheldBatch: a backlog of big batches goes
// out as a run of pushes, each within maxFrame and made of whole pairs, on
// which a peer catches up one push after another; a push of no-ops stops
// at maxSyncPairs; and a push stops before the first slot whose batch the
// pusher does not hold — a state only a lying network leaves behind.
func TestPushStopsAtFrameAndAtAnUnheldBatch(t *testing.T) {
	const slots, size = 24, 100 << 10
	src, learner := mergeCore(t, 0, 0), mergeCore(t, 2, 0)
	big := strings.Repeat("x", size)
	for s := uint64(1); s <= slots; s++ {
		e := []Entry[string]{{Client: 11, Seq: s, Cmd: big}}
		src.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{s, batchID(1, int64(s)), e})})
	}
	// ask returns the push src answers a sync pull from slot `from` with.
	ask := func(from uint64) (Envelope, bool) {
		for _, o := range src.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(2, from)}).Out {
			if o.Env.Kind == KindSync && o.To == 2 {
				return o.Env, true
			}
		}
		return Envelope{}, false
	}
	pushes := 0
	for from := learner.NextSlot(); from <= slots; from = learner.NextSlot() {
		env, ok := ask(from)
		if !ok {
			t.Fatalf("no push from slot %d", from)
		}
		if l := len(AppendEnvelope(nil, env)); l > maxFrame {
			t.Fatalf("push from slot %d encodes to %d bytes, over maxFrame %d", from, l, maxFrame)
		}
		// Re-encode the pairs the push parses into: whole pairs, from the
		// slot asked for on, give back the payload byte for byte.
		count, again, next := 0, []byte(nil), from
		SyncPairs(env.Payload, func(slot uint64, _ int64, pair []byte) bool {
			if slot != next {
				t.Fatalf("push from slot %d names slot %d where %d was due", from, slot, next)
			}
			again = append(appendUvarint(appendUvarint(again, slot), uint64(len(pair))), pair...)
			count, next = count+1, next+1
			return true
		})
		if !bytes.Equal(append(appendUvarint(nil, uint64(count)), again...), env.Payload) {
			t.Fatalf("push from slot %d is not %d whole pairs", from, count)
		}
		learner.Step(Event[string]{Kind: EvEnvelope, Env: env})
		if learner.NextSlot() != next {
			t.Fatalf("learner at slot %d after a push through slot %d", learner.NextSlot(), next-1)
		}
		pushes++
	}
	if min := slots * size / maxFrame; pushes <= min {
		t.Fatalf("a %d-slot backlog of %d KiB batches went out in %d pushes, want more than %d", slots, size>>10, pushes, min)
	}
	if got, want := fmt.Sprint(learner.DecisionLogCopy()), fmt.Sprint(src.DecisionLogCopy()); got != want {
		t.Fatalf("learner's log %s, want the pusher's %s", got, want)
	}

	// Decided, its batch not held: nothing from that slot on is pushed.
	src.decided[slots+1], src.decided[slots+2] = batchID(2, 9), 0
	if env, ok := ask(slots + 1); ok {
		t.Fatalf("pushed %x from a slot whose batch the pusher does not hold", env.Payload)
	}
	if env, _ := ask(slots); !SyncPairs(env.Payload, func(slot uint64, _ int64, _ []byte) bool {
		if slot != slots {
			t.Fatalf("push from slot %d went on to slot %d, past the unheld batch", slots, slot)
		}
		return true
	}) {
		t.Fatal("push does not parse")
	}

	// No-ops: as many as maxSyncPairs per push, and no more.
	noops := mergeCore(t, 0, 0)
	for s := uint64(1); s <= maxSyncPairs+10; s++ {
		noops.Step(Event[string]{Kind: EvEnvelope, Env: syncEnv(1, pushed{slot: s})})
	}
	for _, o := range noops.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(2, 1)}).Out {
		if count, _ := uvarint(o.Env.Payload); o.Env.Kind == KindSync && count != maxSyncPairs {
			t.Fatalf("a backlog of %d no-ops pushed %d at once, want %d", maxSyncPairs+10, count, maxSyncPairs)
		}
	}
}

// decodeCounter is strCodec counting the batches it decodes.
type decodeCounter struct {
	strCodec
	n *int
}

func (d decodeCounter) DecodeEntries(src []byte) ([]Entry[string], error) {
	*d.n++
	return d.strCodec.DecodeEntries(src)
}

// saveCounter is a Persister that keeps nothing and counts every save.
type saveCounter int

func (s *saveCounter) SaveBatch(int64, []byte)                    { *s++ }
func (s *saveCounter) SaveVote(uint64, []byte)                    { *s++ }
func (s *saveCounter) SaveDecision(uint64, int64)                 { *s++ }
func (s *saveCounter) SaveApplied(uint64, int64, []wal.ClientSeq) { *s++ }
func (*saveCounter) Sync() error                                  { return nil }
func (*saveCounter) Snapshot(*wal.State) error                    { return nil }

// TestPushForAKnownSlotStoresNothing: a pushed slot this replica has
// applied, or knows decided with its batch held, costs a repeated push
// nothing — no save and no decode; only a slot it newly learns has its
// batch decoded and saved, once however many slots name the batch.
func TestPushForAKnownSlotStoresNothing(t *testing.T) {
	var saves saveCounter
	decodes := 0
	c, err := NewReplicaCore(CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     decodeCounter{n: &decodes},
		Persist:   &saves,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, xs := batchID(1, 1), ents([2]uint64{11, 1})
	y, ys := batchID(2, 1), ents([2]uint64{12, 1})
	applied := syncEnv(1, pushed{1, x, xs}, pushed{2, x, xs})
	c.Step(Event[string]{Kind: EvEnvelope, Env: applied})
	if decodes != 1 || c.NextSlot() != 3 {
		t.Fatalf("%d decodes for one batch decided in two slots, at slot %d; want 1 and slot 3", decodes, c.NextSlot())
	}
	parked := syncEnv(1, pushed{4, y, ys}) // slot 3 is unknown: slot 4 waits, decided and held
	c.Step(Event[string]{Kind: EvEnvelope, Env: parked})
	if decodes != 2 || !c.HoldsBatch(y) {
		t.Fatalf("%d decodes, batch of the parked slot held %v; want 2 and held", decodes, c.HoldsBatch(y))
	}
	// Both peers have applied slots 1 and 2: the pusher prunes x, and a
	// repeated push of those slots must not bring it back.
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(1, 3)})
	c.Step(Event[string]{Kind: EvEnvelope, Env: syncPullEnv(2, 3)})
	if c.HoldsBatch(x) {
		t.Fatal("batch of slots every replica applied still held")
	}
	savesBefore, decodesBefore := saves, decodes
	for _, env := range []Envelope{applied, parked} {
		c.Step(Event[string]{Kind: EvEnvelope, Env: env})
	}
	if saves != savesBefore || decodes != decodesBefore {
		t.Fatalf("pushes of known slots cost %d saves and %d decodes, want none", saves-savesBefore, decodes-decodesBefore)
	}
	if c.HoldsBatch(x) {
		t.Fatal("a push of applied slots brought their pruned batch back")
	}
	if st := c.Counters(); st.Malformed != 0 || st.Divergent != 0 {
		t.Fatalf("malformed %d, divergent %d; want 0, 0", st.Malformed, st.Divergent)
	}
}
