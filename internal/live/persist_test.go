package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/otr"
	"heardof/internal/wal"
)

// snapshotCmds / restoreCmds give applyLog a trivial snapshot codec so
// the durability tests can exercise the full app-state path.
func (l *applyLog) snapshotState() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []byte(strings.Join(l.cmds, "\x00"))
}

func (l *applyLog) restoreState(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(b) > 0 {
		l.cmds = strings.Split(string(b), "\x00")
	}
}

// TestReplicaRestartFromDisk is the end-to-end durability flow: a
// persisted replica commits load (crossing several snapshot
// boundaries), hard-stops without a graceful checkpoint, restarts from
// its data dir, and rejoins with log, applied commands, and session
// dedup intact — then keeps committing.
func TestReplicaRestartFromDisk(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	reps := make([]*Replica[string], n)
	logs := make([]*applyLog, n)
	newRep := func(p core.ProcessID, persist Persister, rec *wal.State) *Replica[string] {
		lg := logs[p]
		rep, err := NewReplica(ReplicaConfig[string]{
			Self: p, N: n,
			Algorithm: lastvoting.Algorithm{},
			Msg:       lastvoting.WireCodec{},
			Batch:     strCodec{},
			Transport: net.Transport(p),
			Apply:     lg.hook,
			Persist:   persist, Recovered: rec,
			SnapshotState: lg.snapshotState,
			SnapshotEvery: 4, // cross several snapshot+truncate cycles
			RoundTimeout:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	store, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		logs[p] = &applyLog{}
		if p == 2 {
			reps[p] = newRep(core.ProcessID(p), store, st)
		} else {
			reps[p] = newRep(core.ProcessID(p), nil, nil)
		}
		reps[p].Start()
	}
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.Stop()
			}
		}
	}()

	// Phase 1: load through every replica, including the persisted one.
	for i := 0; i < 12; i++ {
		p := i % n
		ch, _ := reps[p].SubmitNext(uint64(p+1), fmt.Sprintf("cmd-%d", i))
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	requireSameLogs(t, reps, logs)
	preLen, preHash := reps[2].LogHash()
	preCommitted := reps[2].Stats().Committed

	// Hard stop: no Checkpoint — recovery must come from snapshot+log
	// alone (everything externally visible was synced before it left).
	reps[2].Stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same directory.
	store2, st2, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(st2.Log)) != preLen {
		t.Fatalf("recovered %d slots, stopped at %d", len(st2.Log), preLen)
	}
	logs[2] = &applyLog{}
	logs[2].restoreState(st2.AppState)
	reps[2] = newRep(2, store2, st2)
	reps[2].Start()
	// Stop before closing the store (the run goroutine syncs to it);
	// this runs before the stop-all defer above, which skips nil.
	defer func() {
		reps[2].Stop()
		reps[2] = nil
		store2.Close()
	}()

	if gotLen, gotHash := reps[2].LogHash(); gotLen != preLen || gotHash != preHash {
		t.Fatalf("restart log fingerprint (%d, %#x) != pre-crash (%d, %#x)",
			gotLen, gotHash, preLen, preHash)
	}
	if got := reps[2].Stats().Committed; got != preCommitted {
		t.Fatalf("restart committed %d != pre-crash %d", got, preCommitted)
	}
	if got := logs[2].snapshot(); len(got) != preCommitted {
		t.Fatalf("restart app state has %d commands, want %d", len(got), preCommitted)
	}

	// Session dedup survived: an already-applied (client, seq) resolves
	// as a duplicate, not a second apply.
	dupCh, err := reps[2].Submit(3, 1, "cmd-2-replayed")
	if err != nil {
		t.Fatal(err)
	}
	if res := waitApplied(t, dupCh, 10*time.Second, "dup probe"); !res.Dup {
		t.Fatal("pre-crash sequence number re-applied after restart")
	}

	// Phase 2: the restarted replica keeps committing with the group.
	for i := 12; i < 20; i++ {
		p := i % n
		ch, _ := reps[p].SubmitNext(uint64(p+1), fmt.Sprintf("cmd-%d", i))
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	requireSameLogs(t, reps, logs)
	for p, r := range reps {
		if d := r.Stats().Divergent; d != 0 {
			t.Fatalf("replica %d observed %d divergent decisions", p, d)
		}
	}
}

// TestRestartFromDiskAfterGC pins down what the durable log buys over
// the empty-state rejoin documented in TestTCPListenerRestartRejoins:
// once every replica applied a slot, its batch is GC'd everywhere, so
// an empty-state rejoiner could never refetch it — but a disk rejoiner
// does not need to: its own log already covers the pruned history.
func TestRestartFromDiskAfterGC(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	reps := make([]*Replica[string], n)
	logs := make([]*applyLog, n)
	mk := func(p core.ProcessID, persist Persister, rec *wal.State) *Replica[string] {
		lg := logs[p]
		rep, err := NewReplica(ReplicaConfig[string]{
			Self: p, N: n,
			Algorithm: otr.Algorithm{},
			Msg:       otr.WireCodec{},
			Batch:     strCodec{},
			Transport: net.Transport(p),
			Apply:     lg.hook,
			Persist:   persist, Recovered: rec,
			SnapshotState: lg.snapshotState,
			RoundTimeout:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	store, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		logs[p] = &applyLog{}
		if p == 2 {
			reps[p] = mk(core.ProcessID(p), store, st)
		} else {
			reps[p] = mk(core.ProcessID(p), nil, nil)
		}
		reps[p].Start()
	}
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.Stop()
			}
		}
	}()

	for i := 0; i < 8; i++ {
		ch, _ := reps[i%n].SubmitNext(uint64(i%n+1), fmt.Sprintf("v-%d", i))
		waitApplied(t, ch, 10*time.Second, "load")
	}
	requireSameLogs(t, reps, logs)

	// Wait for the GC horizon to pass the whole log on a survivor.
	deadline := time.Now().Add(10 * time.Second)
	for reps[0].Stats().BatchesHeld > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("batches never pruned: %d held", reps[0].Stats().BatchesHeld)
		}
		time.Sleep(2 * time.Millisecond)
	}

	preLen, preHash := reps[2].LogHash()
	reps[2].Stop()
	store.Close()

	store2, st2, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	logs[2] = &applyLog{}
	logs[2].restoreState(st2.AppState)
	reps[2] = mk(2, store2, st2)
	reps[2].Start()
	// Stop before closing the store (the run goroutine syncs to it);
	// this runs before the stop-all defer above, which skips nil.
	defer func() {
		reps[2].Stop()
		reps[2] = nil
		store2.Close()
	}()

	// No refetch needed: the log IS the history the group pruned.
	if gotLen, gotHash := reps[2].LogHash(); gotLen != preLen || gotHash != preHash {
		t.Fatalf("rejoin fingerprint (%d, %#x) != pre-crash (%d, %#x)", gotLen, gotHash, preLen, preHash)
	}
	ch, _ := reps[2].SubmitNext(9, "after-gc")
	waitApplied(t, ch, 10*time.Second, "post-rejoin submit")
	requireSameLogs(t, reps, logs)
}

// TestRecoverMatchesDiskRestore ties the model checker's crash-RECOVERY
// transition (ReplicaCore.Recover, a pure-state projection) to the
// production path (wal.Open + RestoreReplicaCore): driving one core
// with a real store and a sync barrier after every step, the two
// recovery routes agree on all protocol state — the disk route may
// only retain MORE batch contents (log records outlive in-memory GC
// until the next snapshot), which is pure availability upside.
func TestRecoverMatchesDiskRestore(t *testing.T) {
	dir := t.TempDir()
	store, st0, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st0.Log) != 0 {
		t.Fatal("fresh dir not empty")
	}
	cfg := CoreConfig[string]{
		Self: 0, N: 1,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
		Persist:   store,
	}
	c, err := NewReplicaCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// n=1: every submit decides and applies within its own step.
	for i := 0; i < 5; i++ {
		c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: uint64(i + 1), Cmd: fmt.Sprintf("c%d", i)})
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := c.LogFingerprint(); n != 5 {
		t.Fatalf("applied %d slots, want 5", n)
	}

	mem := c.Recover()
	store.Close()
	store2, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg.Persist = nil
	disk, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}

	memLen, memHash := mem.LogFingerprint()
	diskLen, diskHash := disk.LogFingerprint()
	if memLen != diskLen || memHash != diskHash {
		t.Fatalf("log fingerprints differ: mem (%d, %#x) vs disk (%d, %#x)",
			memLen, memHash, diskLen, diskHash)
	}
	if a, b := mem.NextSeq(1), disk.NextSeq(1); a != b {
		t.Fatalf("next seq differ: %d vs %d", a, b)
	}
	if a, b := mem.BatchesCreated(), disk.BatchesCreated(); a != b {
		t.Fatalf("batch counters differ: %d vs %d", a, b)
	}
	if a, b := mem.Counters().Committed, disk.Counters().Committed; a != b {
		t.Fatalf("committed differ: %d vs %d", a, b)
	}
	for slot := uint64(1); slot <= memLen; slot++ {
		bid, _ := mem.LogAt(slot)
		// Disk retains at least what memory recovery retains.
		if mem.HoldsBatch(bid) && !disk.HoldsBatch(bid) {
			t.Fatalf("disk restore lost batch %#x of slot %d", bid, slot)
		}
	}
}

// TestRestoredVoteInstalled checks the locked-vote mechanics in
// isolation: a recovered core holding a persisted vote record
// re-installs it — estimate included — when consensus for the slot
// resumes, PAST the round the record sent in.
func TestRestoredVoteInstalled(t *testing.T) {
	alg := lastvoting.Algorithm{}
	locked := alg.NewInstance(1, 3, core.Value(4242))
	// The record of a replica that closed round 5: its state sends in 6.
	vote := locked.(core.Persistent).AppendState(appendUvarint(nil, 6))

	st := &wal.State{
		Log:     []int64{7},
		HWM:     map[uint64]uint64{1: 1},
		Batches: map[int64][]byte{},
		Decided: map[uint64]int64{},
		// The vote belongs to the next slot (2): mid-consensus crash.
		Votes: map[uint64][]byte{2: vote},
	}
	cfg := CoreConfig[string]{
		Self: 1, N: 3,
		Algorithm: alg,
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
	}
	c, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PersistState(); len(got.Votes) != 1 || !bytes.Equal(got.Votes[2], vote) {
		t.Fatalf("restored core does not carry the vote: %+v", got)
	}
	// Any step reopens the slot (a recovered vote is work); the new
	// instance must carry the locked estimate, and enter round 7: round
	// 6's send may have left before the crash, and no round is lived twice.
	res := c.Step(Event[string]{Kind: EvNudge})
	if open := c.OpenRounds(nil); len(open) != 1 || open[0] != (SlotRound{Slot: 2, Round: 7}) {
		t.Fatalf("consensus did not resume slot 2 in round 7: open %+v", open)
	}
	for _, o := range res.Out {
		if o.Env.Kind == KindRound && o.Env.Round != 7 {
			t.Fatalf("resumed slot sent in round %d, want only round 7", o.Env.Round)
		}
	}
	after := c.PersistState()
	if len(after.Votes) != 1 {
		t.Fatalf("running instance not persisted: %+v", after)
	}
	sent, state, _ := splitVote(after.Votes[2])
	if x, n := binary.Varint(state); n <= 0 || x != 4242 || sent != 7 {
		t.Fatalf("restored instance: x=%d sending in round %d, want the locked 4242 in round 7", x, sent)
	}
	// A record without its round is refused, not read as round 0.
	if _, err := RestoreReplicaCore(cfg, &wal.State{Votes: map[uint64][]byte{1: {0x80}}}); err == nil {
		t.Fatal("a vote record with a torn round restored")
	}

	// A record that says round 0 is what a disk that lost the round would
	// hand back (modelcheck's forget-round mutant): it restores, and the
	// slot is back in round 1 — the re-run the saved round exists to
	// prevent.
	_, state, _ = splitVote(vote)
	st.Votes[2] = append([]byte{0}, state...)
	m, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	m.Step(Event[string]{Kind: EvNudge})
	if open := m.OpenRounds(nil); len(open) != 1 || open[0] != (SlotRound{Slot: 2, Round: 1}) {
		t.Fatalf("a round-0 record resumed at %+v, want slot 2 back in round 1", open)
	}
}

// TestStaleVoteDropped: a persisted vote for an already-applied slot is
// ignored on restore (the decision superseded it).
func TestStaleVoteDropped(t *testing.T) {
	alg := otr.Algorithm{}
	vote := alg.NewInstance(0, 3, core.Value(9)).(core.Persistent).AppendState(appendUvarint(nil, 1))
	st := &wal.State{
		Log:     []int64{9},
		HWM:     map[uint64]uint64{},
		Batches: map[int64][]byte{},
		Decided: map[uint64]int64{},
		Votes:   map[uint64][]byte{1: vote}, // slot 1 already applied
	}
	c, err := RestoreReplicaCore(CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: alg,
		Msg:       otr.WireCodec{},
		Batch:     strCodec{},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PersistState(); len(got.Votes) != 0 {
		t.Fatalf("stale vote survived restore: %+v", got)
	}
}

// TestCrashAfterTheOpeningStepReopensFromTheSameVote: round 1's send is
// LastVoting's phase-1 vote, and it leaves in the step that opens the
// slot — with the ack round's send, which repeats it: Coord(1) settles the
// vote round on its own vote at entry. The state they were sent from must
// be on disk when they leave, or the restarted coordinator would reopen
// the slot from scratch — born committed again, to whatever it proposes
// THEN — and phase 1 would carry two votes.
func TestCrashAfterTheOpeningStepReopensFromTheSameVote(t *testing.T) {
	dir := t.TempDir()
	store, _, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
		Persist:   store,
	}
	c, err := NewReplicaCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// said returns what res says in slot 1's round r; it must speak in no
	// round outside [first, last].
	said := func(res StepResult[string], r, first, last core.Round) core.Message {
		t.Helper()
		var msg core.Message
		found := false
		for _, o := range res.Out {
			if o.Env.Kind != KindRound || o.Env.Slot != 1 {
				continue
			}
			if o.Env.Round < first || o.Env.Round > last {
				t.Fatalf("slot 1 message in round %d, want only rounds %d to %d", o.Env.Round, first, last)
			}
			if o.Env.Round != r {
				continue
			}
			enc, _, _ := SplitRound(o.Env.Payload)
			var err error
			if msg, err = (lastvoting.WireCodec{}).Decode(enc); err != nil {
				t.Fatal(err)
			}
			found = true
		}
		if !found {
			t.Fatalf("no round-%d message for slot 1", r)
		}
		return msg
	}
	opened := c.Step(Event[string]{Kind: EvSubmit, Client: 10, Seq: 1, Cmd: "a"})
	if vote := said(opened, 1, 1, 2); vote == nil || said(opened, 2, 1, 2) != vote {
		t.Fatal("p0 opened slot 1 without voting its proposal in round 1 and naming it again in round 2")
	}
	if err := store.Sync(); err != nil { // the shell's barrier before those messages leave
		t.Fatal(err)
	}
	want := c.PersistState().Votes[1]
	store.Close()

	// kill -9 here: nothing but the open has happened.
	store2, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !bytes.Equal(st.Votes[1], want) || len(want) == 0 {
		t.Fatalf("disk holds vote %x for slot 1, the core was speaking from %x", st.Votes[1], want)
	}
	cfg.Persist = store2
	rc, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	// A peer's forward makes the proposal the restart would mint differ
	// from the one it voted for before the crash.
	// (Any step reopens a slot with a recovered vote — this one does.)
	res := rc.Step(Event[string]{Kind: EvEnvelope, Env: forwardEnv(1, ents([2]uint64{11, 1}))})
	if got := openSlots(rc); fmt.Sprint(got) != "[1]" {
		t.Fatalf("recovered replica reopened slots %v, want [1]", got)
	}
	// It resumes in round 3 — round 2's send may have left — with nothing
	// to say there: a restarted coordinator is not ready to announce.
	if msg := said(res, 3, 3, 3); msg != nil {
		t.Fatalf("restarted Coord(1) resumed phase 1 saying %v", msg)
	}
	_, state, _ := splitVote(rc.PersistState().Votes[1])
	if x, n := binary.Varint(state); n <= 0 || x != int64(batchID(0, 1)) {
		t.Fatalf("reopened slot 1 holding estimate %#x, want the pre-crash proposal %#x", x, batchID(0, 1))
	}
}

// barrierProbe is a Persister that keeps nothing but, per slot, the round
// of the newest vote record — buffered until Sync, durable after — and
// checks every round message a replica sends against it.
type barrierProbe struct {
	mu                sync.Mutex
	buffered, durable map[uint64]core.Round
	checked, first    int
	early             []string
}

func (b *barrierProbe) SaveBatch(int64, []byte)                    {}
func (b *barrierProbe) SaveDecision(uint64, int64)                 {}
func (b *barrierProbe) SaveApplied(uint64, int64, []wal.ClientSeq) {}
func (b *barrierProbe) Snapshot(*wal.State) error                  { return nil }

func (b *barrierProbe) SaveVote(slot uint64, record []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sent, _, _ := splitVote(record)
	b.buffered[slot] = sent
}

func (b *barrierProbe) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for slot, sent := range b.buffered {
		b.durable[slot] = sent
	}
	clear(b.buffered)
	return nil
}

// probedTransport reports to the probe what is about to leave.
type probedTransport struct {
	Transport
	probe *barrierProbe
}

func (t probedTransport) Send(to core.ProcessID, env Envelope) {
	if b := t.probe; env.Kind == KindRound {
		b.mu.Lock()
		b.checked++
		if env.Round == 1 {
			b.first++
		}
		if b.durable[env.Slot] < env.Round {
			b.early = append(b.early, fmt.Sprintf("slot %d round %d left with the durable vote record at round %d", env.Slot, env.Round, b.durable[env.Slot]))
		}
		b.mu.Unlock()
	}
	t.Transport.Send(to, env)
}

// TestRoundSendsWaitForTheirVoteRecord is the write-ahead barrier seen
// from outside the real shell: whenever a replica sends in round r of a
// slot, a vote record saying "this state sends in round r" (or later) has
// been synced — the record recovery resumes past. That includes a
// slot's FIRST send: LastVoting's first coordinator votes in round 1, so
// the record openSlot saves must be in the sync group that covers it.
func TestRoundSendsWaitForTheirVoteRecord(t *testing.T) {
	const n = 3
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reps := make([]*Replica[string], n)
	probes := make([]*barrierProbe, n)
	for p := range reps {
		probes[p] = &barrierProbe{buffered: map[uint64]core.Round{}, durable: map[uint64]core.Round{}}
		reps[p], err = NewReplica(ReplicaConfig[string]{
			Self: core.ProcessID(p), N: n,
			Algorithm:    lastvoting.Algorithm{},
			Msg:          lastvoting.WireCodec{},
			Batch:        strCodec{},
			Transport:    probedTransport{net.Transport(core.ProcessID(p)), probes[p]},
			Persist:      probes[p],
			RoundTimeout: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[p].Start()
		defer reps[p].Stop()
	}
	for i := 0; i < 30; i++ {
		p := i % n
		ch, _ := reps[p].SubmitNext(uint64(p+1), fmt.Sprintf("cmd-%d", i))
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	for p, b := range probes {
		b.mu.Lock()
		if len(b.early) > 0 {
			t.Errorf("replica %d: %d of %d round sends outran their vote record, first: %s", p, len(b.early), b.checked, b.early[0])
		}
		if b.first == 0 {
			t.Errorf("replica %d: vacuous, no round-1 send among %d checked", p, b.checked)
		}
		b.mu.Unlock()
	}
}

// failingDisk is a Persister whose every Sync fails.
type failingDisk struct{}

var errDiskFull = errors.New("disk full")

func (failingDisk) SaveBatch(int64, []byte)                    {}
func (failingDisk) SaveVote(uint64, []byte)                    {}
func (failingDisk) SaveDecision(uint64, int64)                 {}
func (failingDisk) SaveApplied(uint64, int64, []wal.ClientSeq) {}
func (failingDisk) Sync() error                                { return errDiskFull }
func (failingDisk) Snapshot(*wal.State) error                  { return errDiskFull }

// TestHaltReleasesWaiters: a replica whose disk refuses a Sync halts, and a
// halted replica is a stopped one — the submission that hit the failing
// barrier gets its waiter closed without a value at once, not when someone
// calls Stop, and Err names the failure. Its two peers are a majority and
// keep committing without it.
func TestHaltReleasesWaiters(t *testing.T) {
	const n = 3
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	reps := make([]*Replica[string], n)
	for p := range reps {
		cfg := ReplicaConfig[string]{
			Self: core.ProcessID(p), N: n,
			Algorithm:    lastvoting.Algorithm{},
			Msg:          lastvoting.WireCodec{},
			Batch:        strCodec{},
			Transport:    net.Transport(core.ProcessID(p)),
			RoundTimeout: time.Millisecond,
		}
		if p == 0 {
			cfg.Persist = failingDisk{}
		}
		if reps[p], err = NewReplica(cfg); err != nil {
			t.Fatal(err)
		}
		reps[p].Start()
		defer reps[p].Stop()
	}
	ch, _ := reps[0].SubmitNext(1, "lost")
	select {
	case res, ok := <-ch:
		if ok {
			t.Fatalf("halted replica resolved its waiter with %+v; want it closed without a value", res)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter still open 1s after the failing Sync: the halt did not release it")
	}
	if err := reps[0].Err(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Err() = %v, want %v", err, errDiskFull)
	}
	if ch, seq := reps[0].SubmitNext(1, "late"); seq != 0 {
		t.Fatalf("halted replica accepted a submission at seq %d", seq)
	} else if _, ok := <-ch; ok {
		t.Fatal("halted replica resolved a late submission")
	}
	kept, _ := reps[1].SubmitNext(2, "kept")
	waitApplied(t, kept, 10*time.Second, "survivors' command")
}
