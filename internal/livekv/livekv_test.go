package livekv

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
	"heardof/internal/wal"
)

// startCluster builds and starts an in-process cluster, cleaning up with
// the test.
func startCluster(t *testing.T, cfg Config, seed uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	return c
}

func TestClusterPutGetThroughLog(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond}, 1)
	ctx := context.Background()

	if err := c.Node(0).Put(ctx, "alice", "100"); err != nil {
		t.Fatal(err)
	}
	// A read through ANY node is linearizable: the write committed
	// before Put returned, so every later read must observe it.
	for i := 0; i < c.N(); i++ {
		v, ok, err := c.Node(i).Get(ctx, "alice")
		if err != nil {
			t.Fatalf("node %d read: %v", i, err)
		}
		if !ok || v != "100" {
			t.Fatalf("node %d read %q/%v, want 100", i, v, ok)
		}
	}
	if err := c.Node(1).Delete(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Node(2).Get(ctx, "alice"); err != nil || ok {
		t.Fatalf("deleted key still visible (ok=%v err=%v)", ok, err)
	}
	if err := c.ConvergedWithin(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConcurrentMixedLoadUnderLoss(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond}, 2)
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0.10)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, opsPerClient = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nd := c.Node(cl % c.N())
			key := fmt.Sprintf("client-%d", cl)
			for i := 1; i <= opsPerClient; i++ {
				want := fmt.Sprintf("v%d", i)
				if err := nd.Put(ctx, key, want); err != nil {
					errs <- fmt.Errorf("client %d put %d: %w", cl, i, err)
					return
				}
				if i%3 == 0 {
					// Single-writer key: a linearizable read must see the
					// write that completed before it.
					v, ok, err := nd.Get(ctx, key)
					if err != nil {
						errs <- fmt.Errorf("client %d get: %w", cl, err)
						return
					}
					if !ok || v != want {
						errs <- fmt.Errorf("client %d: stale read %q/%v, want %q — linearizability violated", cl, v, ok, want)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0)
	}
	if err := c.ConvergedWithin(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClusterConvergesUnderLossAndDelay runs closed-loop clients through
// loss and a variable delay, where replicas often hear a peer's round
// message a window ahead and join its slot: every op must complete, and
// once the faults stop every replica must reach the same log. A batch
// pruned while a replica that had just joined a slot still needed it
// stalls that replica for good, and its clients' ops time out.
func TestClusterConvergesUnderLossAndDelay(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 2, RoundTimeout: 5 * time.Millisecond}, 4)
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0.10)
		c.Faults(i).SetDelay(0, 500*time.Microsecond)
	}
	const clients = 16
	stop := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nd := c.Node(cl % c.N())
			for i := 0; time.Now().Before(stop); i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				err := nd.Put(ctx, fmt.Sprintf("client-%d-%d", cl, i%8), fmt.Sprintf("v%d", i))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", cl, i, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0)
		c.Faults(i).SetDelay(0, 0)
	}
	if err := c.ConvergedWithin(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPauseRejoin is the fault-injection coverage the live layer
// exists for: one node is paused mid-run (it neither sends nor hears —
// the live analogue of a crash with running timers), the survivors keep
// committing, and after the pause the node rejoins through the sync path.
// Asserted: no split decisions anywhere, and catch-up bounded by the
// convergence window.
func TestClusterPauseRejoin(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 1, RoundTimeout: time.Millisecond}, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	put := func(i int, node int) {
		t.Helper()
		if err := c.Node(node).Put(ctx, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %d via node %d: %v", i, node, err)
		}
	}
	for i := 0; i < 5; i++ {
		put(i, i%3)
	}

	// Pause node 2 mid-round: rounds are ~1ms, so the pause lands inside
	// an active slot with overwhelming probability.
	c.Faults(2).SetPaused(true)
	for i := 5; i < 15; i++ {
		put(i, i%2) // survivors only: a majority of 2 of 3 keeps deciding
	}
	before := c.Node(2).Status()[0]

	c.Faults(2).SetPaused(false)
	for i := 15; i < 20; i++ {
		put(i, i%3)
	}
	if err := c.ConvergedWithin(15 * time.Second); err != nil {
		t.Fatalf("paused node did not catch up: %v", err)
	}

	after := c.Node(2).Status()[0]
	if after.LogLen <= before.LogLen {
		t.Fatalf("rejoined node never advanced: %d → %d applied slots", before.LogLen, after.LogLen)
	}
	if after.Stats.SyncDecisions == 0 {
		t.Error("rejoined node reports zero sync decisions — catch-up did not use the sync path")
	}
	for i := 0; i < c.N(); i++ {
		if d := c.Node(i).Status()[0].Stats.Divergent; d != 0 {
			t.Fatalf("node %d observed %d divergent decisions — split decision", i, d)
		}
	}
	// Every committed write must be readable after the rejoin.
	for i := 0; i < 20; i++ {
		v, ok, err := c.Node(2).Get(ctx, fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%02d = %q/%v after rejoin, want v%d", i, v, ok, i)
		}
	}
}

// TestClusterCatchUpUnderLoad: node 2 is paused for two seconds while
// sixteen closed-loop clients on nodes 0 and 1 keep committing — thousands
// of slots, a catch-up of many maxSyncPairs-sized pushes, where
// TestClusterPauseRejoin's pause holds ten commands — and is unpaused with
// the load still running. It must reach the log length the survivors had
// when the pause ended within 10 s, and once the load stops the cluster
// converges with no divergent decision.
func TestClusterCatchUpUnderLoad(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 1, RoundTimeout: time.Millisecond}, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	logLen := func(i int) uint64 {
		n, _ := c.Node(i).Replica(0).LogHash()
		return n
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		loadErr error
	)
	for cl := 0; cl < 16; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd := c.Node(cl % 2)
			for i := 0; !stop.Load(); i++ {
				if err := nd.Put(ctx, fmt.Sprintf("c%02d-%02d", cl, i%64), fmt.Sprint(i)); err != nil {
					errOnce.Do(func() { loadErr = fmt.Errorf("client %d op %d: %w", cl, i, err) })
					return
				}
			}
		}()
	}
	endLoad := func() {
		stop.Store(true)
		wg.Wait()
		if loadErr != nil {
			t.Fatal(loadErr)
		}
	}

	c.Faults(2).SetPaused(true)
	time.Sleep(2 * time.Second)
	target := max(logLen(0), logLen(1))
	c.Faults(2).SetPaused(false)
	unpaused, behind := time.Now(), target-logLen(2)
	for logLen(2) < target {
		if time.Since(unpaused) > 10*time.Second {
			endLoad()
			t.Fatalf("node 2 at %d of the survivors' %d slots 10s after the unpause (%d behind at it)", logLen(2), target, behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
	caughtUp := time.Since(unpaused)
	endLoad()
	if behind < 2*128 {
		t.Fatalf("vacuous: node 2 was only %d slots behind at the unpause, fewer than two full pushes", behind)
	}
	t.Logf("node 2 caught up %d slots in %v under load", behind, caughtUp)
	if err := c.ConvergedWithin(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		if d := c.Node(i).Status()[0].Stats.Divergent; d != 0 {
			t.Fatalf("node %d observed %d divergent decisions — split decision", i, d)
		}
	}
}

// TestCheckpointLeavesNoTail is the graceful-shutdown path (hoserve's
// SIGTERM): on a durable 3-node, 2-group cluster, Checkpoint every node and
// Close. Every store then opens with an empty log tail and an application
// snapshot that covers its whole decision log, and a cluster restarted on
// the same directories reads back every key.
func TestCheckpointLeavesNoTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond, DataDir: dir, NoFsync: true}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const keys = 24

	c, err := NewCluster(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < keys; i++ {
		if err := c.Node(i%3).Put(ctx, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			c.Close()
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := c.ConvergedWithin(10 * time.Second); err != nil {
		c.Close()
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		if err := c.Node(i).Checkpoint(); err != nil {
			c.Close()
			t.Fatalf("node %d: %v", i, err)
		}
	}
	c.Close()

	for p := 0; p < cfg.Replicas; p++ {
		for g := 0; g < cfg.Groups; g++ {
			store, st, err := wal.Open(filepath.Join(dir, fmt.Sprintf("node-%d", p), fmt.Sprintf("group-%d", g)), wal.Options{NoSync: true})
			if err != nil {
				t.Fatalf("node %d group %d: %v", p, g, err)
			}
			store.Close()
			if len(st.Tail) != 0 || st.AppSlots != uint64(len(st.Log)) || len(st.Log) == 0 {
				t.Errorf("node %d group %d after checkpoint: tail %d, app snapshot at %d of %d slots; want an empty tail and the snapshot at the log's end",
					p, g, len(st.Tail), st.AppSlots, len(st.Log))
			}
		}
	}

	c = startCluster(t, cfg, 6)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok, err := c.Node(i%3).Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q/%v after the restart, want v%d", k, v, ok, i)
		}
	}
}

// TestHaltedGroupFailsFast: node 0's group-0 store is closed before the
// node starts, so the replica's first durability barrier fails and it
// halts. A write through node 0 to a group-0 key then fails at once rather
// than waiting out its deadline, Node.Err and GroupStatus.Err name the
// group, group 1 is unaffected, and the other two nodes still commit to
// group 0.
func TestHaltedGroupFailsFast(t *testing.T) {
	c, err := NewCluster(Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond, DataDir: t.TempDir(), NoFsync: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).groups[0].store.Close()
	c.Start()
	t.Cleanup(c.Close)
	key := "k"
	for i := 0; c.Node(0).GroupFor(key) != 0; i++ {
		key = fmt.Sprintf("k%d", i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := c.Node(0).Put(ctx, key, "lost"); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("put through the halted group returned %v after %v; want a prompt failure", err, time.Since(start))
	}
	if err := c.Node(0).Err(); err == nil || !strings.Contains(err.Error(), "group 0 halted") {
		t.Fatalf("Node.Err() = %v, want group 0 named", err)
	}
	if st := c.Node(0).Status(); st[0].Err == nil || st[1].Err != nil {
		t.Fatalf("GroupStatus.Err = %v, %v; want group 0 halted and group 1 running", st[0].Err, st[1].Err)
	}
	if err := c.Node(1).Put(ctx, key, "kept"); err != nil {
		t.Fatalf("the survivors did not commit to group 0: %v", err)
	}
}

func TestNodeRejectsBadConfig(t *testing.T) {
	net, err := live.NewChanNetwork(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := NewNode(Config{Replicas: 0, Groups: 1}, 0, net.Transport(0)); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := NewNode(Config{Replicas: 3, Groups: 0}, 0, net.Transport(0)); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := NewNode(Config{Replicas: 3, Groups: 1}, core.ProcessID(5), net.Transport(0)); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := NewCluster(Config{Replicas: 2, Groups: -1}, 1); err == nil {
		t.Error("negative groups accepted")
	}
}
