// Fuzz coverage for the live runtime's inbound surface: the envelope
// decoder and the replica core's envelope handlers. Both sit directly
// behind the network — every byte a peer (or an attacker on the TCP
// port) sends flows through here — so neither may ever panic, and
// undecodable payloads must be counted and dropped, not acted on.

package live

import (
	"bytes"
	"testing"

	"heardof/internal/core"
	"heardof/internal/otr"
)

// FuzzDecodeEnvelope: arbitrary bytes must never panic the frame
// decoder, and any frame it accepts must re-encode and decode to the
// same envelope. Seeds are real traffic captured from a replica core
// working a submission, plus handcrafted malformed frames.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range coreTraffic(f) {
		f.Add(AppendEnvelope(nil, env))
	}
	good := AppendEnvelope(nil, Envelope{Group: 1, Slot: 2, Round: 3, From: 4, Kind: KindSync, Payload: []byte{1, 2}})
	f.Add(good)
	f.Add(good[:3])
	f.Add([]byte(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // overlong uvarint
	f.Add(AppendEnvelope(nil, Envelope{From: core.ProcessID(core.MaxProcesses), Kind: KindRound}))
	entry := []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}
	f.Add(AppendEnvelope(nil, Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound, Payload: roundPayload(nil, batchID(1, 1), entry)}))
	f.Add(AppendEnvelope(nil, Envelope{Slot: 1, From: 1, Kind: KindSync, Payload: syncEnv(1, pushed{1, batchID(1, 1), entry}).Payload}))

	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		again, err := DecodeEnvelope(AppendEnvelope(nil, env))
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %+v: %v", env, err)
		}
		if again.Group != env.Group || again.Slot != env.Slot || again.Round != env.Round ||
			again.From != env.From || again.Kind != env.Kind || !bytes.Equal(again.Payload, env.Payload) {
			t.Fatalf("round trip changed the envelope: %+v → %+v", env, again)
		}
	})
}

// FuzzReplicaCoreStep: a freshly built replica core must survive any
// single inbound envelope — arbitrary kind, positioning, and payload —
// without panicking, and must count the ones it cannot decode.
func FuzzReplicaCoreStep(f *testing.F) {
	for _, env := range coreTraffic(f) {
		f.Add(uint8(env.Kind), env.Slot, uint64(env.Round), uint8(env.From), env.Payload)
	}
	f.Add(uint8(KindRound), uint64(1), uint64(1), uint8(1), []byte{0xFF})
	f.Add(uint8(KindSync), uint64(1), uint64(0), uint8(2), appendUvarint(appendUvarint(appendUvarint(nil, 1), 1), 9)) // a length past the end
	f.Add(uint8(KindSync), uint64(0), uint64(0), uint8(1), []byte{0xFF, 0xFF, 0xFF})
	f.Add(uint8(99), uint64(0), uint64(0), uint8(1), []byte("junk"))
	f.Add(uint8(KindForward), uint64(0), uint64(0), uint8(1), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge entry count
	f.Add(uint8(KindForward), uint64(0), uint64(0), uint8(0), strCodec{}.AppendEntries(nil, []Entry[string]{{Client: 9, Seq: 1, Cmd: "self"}}))
	f.Add(uint8(KindSync), uint64(1<<62), uint64(0), uint8(1), // a push of a slot nobody is near, with its batch
		syncEnv(1, pushed{1 << 62, batchID(1, 1), []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}}).Payload)
	f.Add(uint8(KindRound), uint64(1<<62), uint64(1), uint8(1), // a rider of a slot nobody is near
		roundPayload(nil, batchID(1, 1), []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}))
	f.Add(uint8(KindRound), uint64(1), uint64(1), uint8(2), // a rider of the slot in flight
		roundPayload(nil, batchID(2, 1), []Entry[string]{{Client: 9, Seq: 2, Cmd: "y"}}))

	f.Fuzz(func(t *testing.T, kind uint8, slot, round uint64, from uint8, payload []byte) {
		c := newFuzzCore(t)
		// Give the core live state so round/batch/sync handlers exercise
		// their non-idle paths too.
		c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: 1, Cmd: "a"})
		before := c.Counters()
		res := c.Step(Event[string]{Kind: EvEnvelope, Env: Envelope{
			Slot: slot, Round: core.Round(round % (1 << 20)),
			From: core.ProcessID(int(from) % 3), Kind: Kind(kind), Payload: payload,
		}})
		after := c.Counters()
		if after.Malformed < before.Malformed {
			t.Fatalf("malformed counter went backwards: %d → %d", before.Malformed, after.Malformed)
		}
		for _, a := range res.Applied {
			if a.Slot == 0 {
				t.Fatalf("applied slot 0 from envelope kind=%d payload=%x", kind, payload)
			}
		}
		for bid, s := range c.batchSlot {
			if limit := c.NextSlot() + 2*window; s >= limit && c.decided[s] != bid {
				t.Fatalf("batch %#x held until slot %d on a rider's word (join range ends before %d)", bid, s, limit)
			}
		}
	})
}

// roundPayload encodes an OTR round message as appendRound does, with
// batch bid's entries riding behind it (bid 0: nothing rides). The null
// message encodes alike under OTR and LastVoting.
func roundPayload(m core.Message, bid int64, entries []Entry[string]) []byte {
	enc, _ := otr.WireCodec{}.Encode(m)
	b := append(appendUvarint(nil, uint64(len(enc))), enc...)
	if bid != 0 {
		b = strCodec{}.AppendEntries(appendVarint(b, bid), entries)
	}
	return b
}

// FuzzRoundPayload: the round payload and the batch riding behind it.
// Whatever the bytes, the core must not panic; a payload whose length,
// message, rider id or rider entries do not parse is counted malformed
// and heard by nobody — the id is checked before the entries are
// decoded, and the entries' count by the BatchCodec before it sizes
// anything — and a well-formed one leaves its rider held.
func FuzzRoundPayload(f *testing.F) {
	for _, env := range coreTraffic(f) {
		if env.Kind == KindRound {
			f.Add(env.Payload)
		}
	}
	entry := []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}
	f.Add(roundPayload(nil, batchID(2, 1), entry))
	f.Add(roundPayload(nil, batchID(5, 1), entry))
	f.Add(appendUvarint(appendVarint(roundPayload(nil, 0, nil), batchID(1, 1)), 1<<40)) // a huge entry count
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})     // an overlong length

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := newFuzzCore(t)
		res := c.Step(Event[string]{Kind: EvEnvelope, Env: Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound, Payload: payload}})
		enc, rider, ok := SplitRound(payload)
		_, err := otr.WireCodec{}.Decode(enc)
		ok = ok && err == nil
		var bid int64
		if ok && len(rider) > 0 {
			var n int
			bid, n = varint(rider)
			ok = n > 0 && c.validBatchID(bid)
			if ok {
				_, err := strCodec{}.DecodeEntries(rider[n:])
				ok = err == nil
			}
		}
		if malformed := c.Counters().Malformed != 0; malformed == ok {
			t.Fatalf("payload %x: well-formed %v, counted malformed %v", payload, ok, malformed)
		}
		if !ok && (len(res.Out) != 0 || c.Counters().Open != 0 || len(c.batches) != 0) {
			t.Fatalf("malformed payload %x had effects: %+v, %d open, %d batches", payload, res, c.Counters().Open, len(c.batches))
		}
		if ok && bid != 0 && !c.HoldsBatch(bid) {
			t.Fatalf("payload %x: rider %#x not held", payload, bid)
		}
	})
}

// FuzzSyncPayload: a decision push and the batches it carries. Whatever
// the bytes, the core must not panic, and it validates before it
// allocates: the pair count against maxSyncPairs, each length against the
// bytes that remain, the entries through the BatchCodec (which bounds its
// own count). A push that parses is recorded pair by pair, each new slot
// decided with its batch held; one that does not is counted malformed
// once, the pairs before the bad one kept.
func FuzzSyncPayload(f *testing.F) {
	entry := []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}
	f.Add(syncEnv(1, pushed{1, batchID(1, 1), entry}).Payload)
	f.Add(syncEnv(1, pushed{slot: 1}, pushed{2, batchID(2, 1), entry}, pushed{3, batchID(2, 1), entry}).Payload)
	f.Add(syncEnv(1, pushed{slot: 1}, pushed{1, batchID(2, 1), entry}).Payload) // one slot, two ids
	f.Add(appendUvarint(nil, maxSyncPairs+1))                                   // too many pairs
	f.Add(appendUvarint(appendUvarint(appendUvarint(nil, 1), 1), 9))            // a length past the end
	f.Add(onePair(1, appendVarint(nil, batchID(1, 1))))                         // an id and no entries
	f.Add(onePair(1, appendUvarint(appendVarint(nil, batchID(1, 1)), 1<<40)))   // a huge entry count

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := newFuzzCore(t)
		c.Step(Event[string]{Kind: EvEnvelope, Env: Envelope{From: 1, Kind: KindSync, Payload: payload}})
		// The oracle: decode what the core must have decoded — the batch of
		// each pair whose id is not the no-op and not held from an earlier
		// pair — and remember the first id each slot was pushed with.
		held := map[int64]bool{}
		first := map[uint64]int64{}
		bad := false
		ok := SyncPairs(payload, func(slot uint64, bid int64, pair []byte) bool {
			if bid != 0 && !held[bid] {
				_, n := varint(pair)
				if _, err := (strCodec{}).DecodeEntries(pair[n:]); err != nil || !c.validBatchID(bid) {
					bad = true
					return false
				}
				held[bid] = true
			}
			if _, seen := first[slot]; !seen {
				first[slot] = bid
			}
			return true
		}) && !bad
		if malformed := c.Counters().Malformed; malformed != 0 == ok || malformed > 1 {
			t.Fatalf("payload %x: well-formed %v, counted malformed %d times", payload, ok, malformed)
		}
		for slot, bid := range first {
			if got, known := c.decisionAt(slot); !known || got != bid || bid != 0 && !c.HoldsBatch(bid) {
				t.Fatalf("payload %x: slot %d pushed as %#x, recorded %#x (known %v), batch held %v",
					payload, slot, bid, got, known, c.HoldsBatch(bid))
			}
		}
	})
}

// onePair encodes a KindSync payload of one pair whose len bytes are body.
func onePair(slot uint64, body []byte) []byte {
	return append(appendUvarint(appendUvarint(appendUvarint(nil, 1), slot), uint64(len(body))), body...)
}

// TestMalformedPayloadsCounted pins the accounting: each undecodable
// inbound payload bumps ReplicaStats.Malformed exactly once and
// produces no outbound traffic and no applies.
func TestMalformedPayloadsCounted(t *testing.T) {
	c := newFuzzCore(t)
	cases := []struct {
		name string
		env  Envelope
	}{
		{"round length", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound, Payload: []byte{0xFF}}},
		{"round length past the end", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound, Payload: []byte{3, 1, 2}}},
		{"round bad tag", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound, Payload: []byte{1, 0x80}}},
		{"round rider id zero", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound,
			Payload: appendVarint(roundPayload(nil, 0, nil), 0)}},
		{"round rider of no member", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound,
			Payload: roundPayload(nil, batchID(3, 1), []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}})}},
		{"round rider bad entries", Envelope{Slot: 1, Round: 1, From: 1, Kind: KindRound,
			Payload: appendVarint(roundPayload(nil, 0, nil), batchID(1, 7))}},
		{"batch, reserved and never sent", Envelope{From: 1, Kind: KindBatch,
			Payload: strCodec{}.AppendEntries(appendVarint(nil, batchID(1, 1)), []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}})}},
		{"sync empty", Envelope{From: 1, Kind: KindSync}},
		{"sync too many pairs", Envelope{From: 1, Kind: KindSync, Payload: appendUvarint(nil, maxSyncPairs+1)}},
		{"sync slot zero", Envelope{From: 1, Kind: KindSync, Payload: syncEnv(1, pushed{slot: 0}).Payload}},
		{"sync length past the end", Envelope{From: 1, Kind: KindSync,
			Payload: appendUvarint(appendUvarint(appendUvarint(nil, 1), 1), 9)}},
		{"sync batch bad entries", Envelope{From: 1, Kind: KindSync, Payload: onePair(1, appendVarint(nil, batchID(1, 7)))}},
		{"sync batch of no member", Envelope{From: 1, Kind: KindSync,
			Payload: syncEnv(1, pushed{1, batchID(3, 1), []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}}}).Payload}},
		{"sync pull empty", Envelope{From: 1, Kind: KindSyncPull}},
		{"forward empty", Envelope{From: 1, Kind: KindForward}},
		{"forward truncated", Envelope{From: 2, Kind: KindForward, Payload: appendUvarint(nil, 3)}},
		{"unknown kind", Envelope{From: 1, Kind: Kind(42), Payload: []byte("x")}},
	}
	for i, tc := range cases {
		res := c.Step(Event[string]{Kind: EvEnvelope, Env: tc.env})
		if got := c.Counters().Malformed; got != i+1 {
			t.Fatalf("%s: Malformed = %d, want %d", tc.name, got, i+1)
		}
		if len(res.Out) != 0 || len(res.Applied) != 0 {
			t.Fatalf("%s: malformed input had effects: %+v", tc.name, res)
		}
	}
}

// TestForwardFromNobodyIgnored: a forward claiming to come from this
// replica itself, or from a process outside the group, is dropped
// whole — it is well-formed, so it is not Malformed, but it must never
// reach the forward table (there is no slot for it) or start a slot.
func TestForwardFromNobodyIgnored(t *testing.T) {
	c := newFuzzCore(t)
	payload := strCodec{}.AppendEntries(nil, []Entry[string]{{Client: 9, Seq: 1, Cmd: "x"}})
	for _, from := range []core.ProcessID{0, 3, 63, -1} {
		res := c.Step(Event[string]{Kind: EvEnvelope, Env: Envelope{From: from, Kind: KindForward, Payload: payload}})
		if len(res.Out) != 0 || len(res.Applied) != 0 || c.Counters().Malformed != 0 {
			t.Fatalf("forward from %d had effects: %+v, malformed=%d", from, res, c.Counters().Malformed)
		}
		if c.Counters().Open != 0 {
			t.Fatalf("forward from %d opened a slot", from)
		}
	}
	// The same payload from a real peer is work: it opens slot 1.
	c.Step(Event[string]{Kind: EvEnvelope, Env: Envelope{From: 2, Kind: KindForward, Payload: payload}})
	if c.Counters().Open != 1 {
		t.Fatal("forward from a peer did not open a slot")
	}
}

// newFuzzCore builds an idle 3-replica core (self = 0, OTR, string
// commands) for the envelope-surface tests.
func newFuzzCore(t testing.TB) *ReplicaCore[string] {
	t.Helper()
	c, err := NewReplicaCore(CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: otr.Algorithm{},
		Msg:       otr.WireCodec{},
		Batch:     strCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// coreTraffic captures the envelopes a core actually emits while
// working a submission — the seed corpus's "real round traffic".
func coreTraffic(f *testing.F) []Envelope {
	c := newFuzzCore(f)
	var envs []Envelope
	collect := func(res StepResult[string]) {
		for _, o := range res.Out {
			envs = append(envs, o.Env)
		}
	}
	collect(c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: 1, Cmd: "put"}))
	collect(c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: 2, Cmd: "get"})) // opens slot 2: an overlapping batch
	collect(c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: 3, Cmd: "del"})) // window full: a KindForward
	collect(c.Step(Event[string]{Kind: EvRoundTimeout, Slot: 1}))
	collect(c.Step(Event[string]{Kind: EvTick}))
	if len(envs) == 0 {
		f.Fatal("seed core emitted no traffic — corpus generator is broken")
	}
	return envs
}
