package kvstore

import (
	"encoding/binary"
	"errors"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/shard"
	"heardof/internal/xrand"
)

func fullProvider(int) core.HOProvider { return adversary.Full{} }

// newSingle builds the S = 1 store — the unsharded case of the one
// assembly — with every slot under the given per-slot provider.
func newSingle(n int, provider func(int) core.HOProvider, maxRounds core.Round, tune rsm.Tuning) (*ShardedCluster, error) {
	return NewShardedCluster(shard.Config{Shards: 1}, n, otr.Algorithm{},
		func(int) func(int) core.HOProvider { return provider }, maxRounds, tune)
}

func newTestCluster(t *testing.T, n int, provider func(int) core.HOProvider) *ShardedCluster {
	t.Helper()
	c, err := newSingle(n, provider, 100, rsm.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustSubmit(t *testing.T, c *ShardedCluster, contact int, cmd Command) {
	t.Helper()
	if err := c.Submit(contact, cmd); err != nil {
		t.Fatal(err)
	}
}

func TestStateMachineBasics(t *testing.T) {
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "a", Value: "1"})
	sm.Apply(Command{Op: OpPut, Key: "b", Value: "2"})
	if v, ok := sm.Get("a"); !ok || v != "1" {
		t.Error("get after put failed")
	}
	sm.Apply(Command{Op: OpDelete, Key: "a"})
	if _, ok := sm.Get("a"); ok {
		t.Error("get after delete succeeded")
	}
	if sm.Len() != 3 {
		t.Errorf("log length = %d, want 3", sm.Len())
	}
	if sm.Fingerprint() != "b=2;" {
		t.Errorf("fingerprint = %q", sm.Fingerprint())
	}
}

func TestCommandString(t *testing.T) {
	if (Command{Op: OpPut, Key: "k", Value: "v"}).String() != "put k=v" {
		t.Error("put string wrong")
	}
	if (Command{Op: OpDelete, Key: "k"}).String() != "del k" {
		t.Error("del string wrong")
	}
}

func TestReplicationFaultFree(t *testing.T) {
	c := newTestCluster(t, 4, fullProvider)
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "x", Value: "1"})
	mustSubmit(t, c, 1, Command{Op: OpPut, Key: "y", Value: "2"})
	mustSubmit(t, c, 2, Command{Op: OpDelete, Key: "x"})
	applied, err := c.Drain(20)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Errorf("applied %d commands, want 3", applied)
	}
	if !c.Converged() {
		t.Fatal("replicas diverged")
	}
	if _, ok := c.Replica(0, 3).SM.Get("x"); ok {
		t.Error("x should be deleted everywhere")
	}
	if v, _ := c.Replica(0, 0).SM.Get("y"); v != "2" {
		t.Error("y missing")
	}
}

// TestSubmitInvalidContact is the regression test for the panic this PR
// fixes: Submit used to index c.replicas[contact] unchecked, so a bad
// contact id crashed the process instead of returning an error.
func TestSubmitInvalidContact(t *testing.T) {
	c := newTestCluster(t, 3, fullProvider)
	for _, contact := range []int{-1, 3, 100} {
		if err := c.Submit(contact, Command{Op: OpPut, Key: "k", Value: "v"}); err == nil {
			t.Errorf("contact %d accepted", contact)
		}
	}
	if c.PendingTotal() != 0 {
		t.Errorf("rejected submissions left %d pending commands", c.PendingTotal())
	}
	// Valid contacts still work after rejections.
	mustSubmit(t, c, 2, Command{Op: OpPut, Key: "k", Value: "v"})
	if _, err := c.Drain(5); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationUnderTransmissionLoss(t *testing.T) {
	// DT faults between replicas: each slot's instance rides out 20% loss
	// (more rounds, same result). All replicas still converge.
	rng := xrand.New(42)
	provider := func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.2, RNG: rng.Fork()}
	}
	c := newTestCluster(t, 5, provider)
	for i := 0; i < 12; i++ {
		key := string(rune('a' + i%4))
		mustSubmit(t, c, i%5, Command{Op: OpPut, Key: key, Value: key})
	}
	if _, err := c.Drain(60); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("replicas diverged under loss")
	}
}

func TestBatchingAmortizesSlots(t *testing.T) {
	// The acceptance bound of this PR at the kvstore layer: M commands
	// drain in ≤ ⌈M/63⌉ + 1 slots, versus exactly M slots before rsm.
	c := newTestCluster(t, 4, fullProvider)
	const cmds = 150
	for i := 0; i < cmds; i++ {
		mustSubmit(t, c, i%4, Command{Op: OpPut, Key: "k", Value: "v"})
	}
	applied, err := c.Drain(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if applied != cmds {
		t.Fatalf("applied %d of %d", applied, cmds)
	}
	if bound := (cmds+62)/63 + 1; c.Stats().Slots > bound {
		t.Errorf("used %d slots for %d commands, want ≤ %d", c.Stats().Slots, cmds, bound)
	}
}

func TestPipelinedClusterConverges(t *testing.T) {
	rng := xrand.New(9)
	provider := func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.15, RNG: rng.Fork()}
	}
	c, err := newSingle(5, provider, 300, rsm.Tuning{BatchSize: 4, Pipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustSubmit(t, c, i%5, Command{Op: OpPut, Key: string(rune('a' + i%7)), Value: "v"})
	}
	applied, err := c.Drain(100)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 40 {
		t.Errorf("applied %d of 40", applied)
	}
	if !c.Converged() {
		t.Fatal("pipelined replicas diverged")
	}
	st := c.Stats()
	if st.WallRounds >= st.TotalRounds {
		t.Errorf("pipelining bought nothing: wall %d, total %d", st.WallRounds, st.TotalRounds)
	}
}

// An idle store spends nothing: DecideWindows skips groups with no
// pending commands (the engine's own empty window is rsm's
// TestEmptyWindowIsNoOpSlot), so no no-op slot is launched.
func TestNoOpSlots(t *testing.T) {
	c := newTestCluster(t, 3, fullProvider)
	applied, err := c.DecideWindows()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); applied != 0 || st.Launched != 0 || c.Replica(0, 0).SM.Len() != 0 {
		t.Errorf("idle cluster applied %d commands over %d launches", applied, st.Launched)
	}
}

func TestUndecidedSlotReportsError(t *testing.T) {
	c, err := newSingle(3, func(int) core.HOProvider {
		return adversary.Silence{}
	}, 5, rsm.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	if _, err := c.DecideWindows(); !errors.Is(err, ErrSlotUndecided) {
		t.Errorf("error = %v, want ErrSlotUndecided", err)
	}
}

// TestDrainBudgetKeepsSentinel is the regression test for the lost
// sentinel this PR fixes: Drain's budget-exhausted failure was a bare
// fmt.Errorf, so errors.Is(err, ErrSlotUndecided) was false on that path.
func TestDrainBudgetKeepsSentinel(t *testing.T) {
	c, err := newSingle(3, fullProvider, 50, rsm.Tuning{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	}
	applied, err := c.Drain(2)
	if !errors.Is(err, ErrSlotUndecided) {
		t.Errorf("error = %v, want ErrSlotUndecided", err)
	}
	if applied != 2 || c.PendingTotal() != 3 {
		t.Errorf("applied %d pending %d, want 2 and 3", applied, c.PendingTotal())
	}
}

func TestValidation(t *testing.T) {
	if _, err := newSingle(0, fullProvider, 10, rsm.Tuning{}); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewShardedCluster(shard.Config{Shards: 1}, 3, nil,
		func(int) func(int) core.HOProvider { return fullProvider }, 10, rsm.Tuning{}); err == nil {
		t.Error("expected error for nil algorithm")
	}
	if _, err := newSingle(3, nil, 10, rsm.Tuning{}); err == nil {
		t.Error("expected error for a nil per-slot provider")
	}
}

func TestConvergencePropertyManyWorkloads(t *testing.T) {
	// Property-style: random workloads under random per-slot loss always
	// converge (or fail to decide, never diverge).
	for seed := uint64(0); seed < 30; seed++ {
		rng := xrand.New(seed)
		provider := func(int) core.HOProvider {
			return &adversary.TransmissionLoss{Rate: 0.15, RNG: rng.Fork()}
		}
		c := newTestCluster(t, 4, provider)
		ops := 4 + rng.Intn(10)
		for i := 0; i < ops; i++ {
			key := string(rune('a' + rng.Intn(5)))
			if rng.Bool(0.25) {
				mustSubmit(t, c, rng.Intn(4), Command{Op: OpDelete, Key: key})
			} else {
				mustSubmit(t, c, rng.Intn(4), Command{Op: OpPut, Key: key, Value: key + key})
			}
		}
		if _, err := c.Drain(120); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !c.Converged() {
			t.Fatalf("seed %d: replicas diverged", seed)
		}
	}
}

func TestLogsIdenticalAcrossReplicas(t *testing.T) {
	c := newTestCluster(t, 3, fullProvider)
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "a", Value: "1"})
	mustSubmit(t, c, 1, Command{Op: OpPut, Key: "a", Value: "2"})
	if _, err := c.Drain(10); err != nil {
		t.Fatal(err)
	}
	// Whatever the interleaving, all replicas applied the same commands
	// in the same order: the final value of "a" is identical (already
	// covered by Converged) and the logs have equal length and content.
	l0 := c.Replica(0, 0).SM.log
	for r := 1; r < 3; r++ {
		lr := c.Replica(0, r).SM.log
		if len(lr) != len(l0) {
			t.Fatalf("log lengths differ: %d vs %d", len(lr), len(l0))
		}
		for i := range l0 {
			if lr[i] != l0[i] {
				t.Fatalf("logs diverge at %d: %v vs %v", i, lr[i], l0[i])
			}
		}
	}
}

func TestDecideWindowsAppliesTheBatchInOrder(t *testing.T) {
	c := newTestCluster(t, 3, fullProvider)
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "a", Value: "1"})
	mustSubmit(t, c, 1, Command{Op: OpPut, Key: "b", Value: "2"})
	applied, err := c.DecideWindows()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || c.Stats().Slots != 1 {
		t.Fatalf("applied %d commands over %d slots, want both in one slot", applied, c.Stats().Slots)
	}
	if cmds := c.Replica(0, 2).SM.log; len(cmds) != 2 || cmds[0].Key != "a" || cmds[1].Key != "b" {
		t.Errorf("batch order %v, want submission order", cmds)
	}
}

func TestStateMachineSnapshotRoundTrip(t *testing.T) {
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "a", Value: "1"})
	sm.Apply(Command{Op: OpPut, Key: "b", Value: "2"})
	sm.Apply(Command{Op: OpDelete, Key: "a"})
	sm.Apply(Command{Op: OpGet, Key: "b"})

	snap := sm.AppendSnapshot(nil)
	rec := NewStateMachine()
	if err := rec.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint() != sm.Fingerprint() {
		t.Fatalf("fingerprint %q != %q", rec.Fingerprint(), sm.Fingerprint())
	}
	if rec.Len() != sm.Len() {
		t.Fatalf("applied count %d != %d", rec.Len(), sm.Len())
	}
	// Applying on top of the restored machine keeps counting from the
	// snapshot's total.
	rec.Apply(Command{Op: OpPut, Key: "c", Value: "3"})
	if rec.Len() != sm.Len()+1 {
		t.Fatalf("post-restore Len = %d, want %d", rec.Len(), sm.Len()+1)
	}

	if err := NewStateMachine().RestoreSnapshot(nil); err != nil {
		t.Fatalf("empty snapshot rejected: %v", err)
	}
	for _, b := range [][]byte{{0x80}, snap[:len(snap)-1], append(append([]byte{}, snap...), 0)} {
		if err := NewStateMachine().RestoreSnapshot(b); err == nil {
			t.Errorf("RestoreSnapshot(%x) accepted corrupt snapshot", b)
		}
	}
}

// A hostile or torn snapshot header must not buy an allocation: a key
// count far beyond the remaining payload has to be rejected BEFORE the
// map is sized from it (allocate-after-validate; found by holint's
// allocbound analyzer, the PR-6 fuzz bug class on the snapshot path).
func TestRestoreSnapshotRejectsOversizedKeyCount(t *testing.T) {
	hostile := binary.AppendUvarint(nil, 7)        // plausible applied count
	hostile = binary.AppendUvarint(hostile, 1<<40) // key count with no bytes behind it
	if err := NewStateMachine().RestoreSnapshot(hostile); err == nil {
		t.Fatal("RestoreSnapshot accepted a 2^40 key count with an empty payload")
	}
	// The bound must not reject legitimate snapshots whose entries are
	// minimal (empty keys and values: two bytes per entry).
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "", Value: ""})
	rec := NewStateMachine()
	if err := rec.RestoreSnapshot(sm.AppendSnapshot(nil)); err != nil {
		t.Fatalf("minimal-entry snapshot rejected: %v", err)
	}
	if rec.Fingerprint() != sm.Fingerprint() {
		t.Fatalf("fingerprint %q != %q", rec.Fingerprint(), sm.Fingerprint())
	}
}
