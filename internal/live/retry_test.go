package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
)

// starvingLink is a sender-side filter that keeps one replica from ever
// receiving batch contents unasked, and loses the replies to its first
// pulls: every round message to victim is dropped — batches ride them —
// so it learns each slot from a decider's sync push, with nothing to
// apply; and so are the first `lost` pull replies — one per peer.
type starvingLink struct {
	Transport
	victim core.ProcessID
	mu     *sync.Mutex
	lost   *int
}

func (l starvingLink) Send(to core.ProcessID, env Envelope) {
	if to == l.victim && env.Kind == KindRound {
		return
	}
	if to == l.victim && env.Kind == KindBatch {
		l.mu.Lock()
		drop := *l.lost > 0
		if drop {
			*l.lost--
		}
		l.mu.Unlock()
		if drop {
			return
		}
	}
	l.Transport.Send(to, env)
}

// pullCounter counts the KindBatchPull envelopes a replica sends (a
// broadcast pull is one per peer).
type pullCounter struct {
	Transport
	pulls *atomic.Int64
}

func (l pullCounter) Send(to core.ProcessID, env Envelope) {
	if env.Kind == KindBatchPull {
		l.pulls.Add(1)
	}
	l.Transport.Send(to, env)
}

// starvedGroup starts three LastVoting replicas whose links starve replica
// 2 of batch contents and lose the first `lost` replies to its pulls: p0
// and p1 decide every slot between them, p0 the coordinator counted beside
// p1's ack. It returns the replicas, the victim's pull count, and how many
// replies are still to be lost.
func starvedGroup(t *testing.T, lost int, roundTimeout, syncEvery time.Duration) (reps []*Replica[string], pulls *atomic.Int64, left func() int) {
	t.Helper()
	const n, victim = 3, 2
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	var mu sync.Mutex
	pulls = new(atomic.Int64)
	reps = make([]*Replica[string], n)
	for p := 0; p < n; p++ {
		var tr Transport = net.Transport(core.ProcessID(p))
		if p != victim {
			tr = starvingLink{Transport: tr, victim: victim, mu: &mu, lost: &lost}
		} else {
			tr = pullCounter{Transport: tr, pulls: pulls}
		}
		reps[p], err = NewReplica(ReplicaConfig[string]{
			Self: core.ProcessID(p), N: n,
			Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}, Batch: strCodec{},
			Transport:    tr,
			RoundTimeout: roundTimeout,
			SyncEvery:    syncEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reps {
		r.Start()
		t.Cleanup(r.Stop)
	}
	return reps, pulls, func() int {
		mu.Lock()
		defer mu.Unlock()
		return lost
	}
}

// TestBatchRepullFiresUnderSteadyTraffic is the starved-retry
// regression. A replica blocked on a decided batch whose pull reply was
// lost must re-pull when its retry timer fires. The shell used to re-arm
// that timer after EVERY event while blocked, so under steady traffic —
// events closer together than the retry interval, which a busy group
// always has — it never fired, and the lost reply waited for the idle
// heartbeat. Here the heartbeat is an hour away and the group stays busy:
// only a timer armed once per pull gets the victim unstuck.
func TestBatchRepullFiresUnderSteadyTraffic(t *testing.T) {
	const n, victim = 3, 2
	reps, _, left := starvedGroup(t, n-1, time.Millisecond, time.Hour)

	// Steady traffic: p0 commits a command every few milliseconds for the
	// whole test, so the victim's event loop never sees a quiet interval.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			ch, _ := reps[0].SubmitNext(1, fmt.Sprintf("busy-%d", i))
			select {
			case <-ch:
			case <-stop:
				return
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	deadline := time.Now().Add(5 * time.Second)
	for reps[victim].Stats().Applied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("victim never applied slot 1 (%d pull replies still to lose, peers at slot %d): the re-pull timer starved",
				left(), reps[0].Stats().Applied)
		}
		time.Sleep(time.Millisecond)
	}
	if left() != 0 {
		t.Fatalf("victim applied without losing its first pull replies (%d left): the test exercised nothing", left())
	}
}

// TestBatchRepullRunsAtRoundPace: the replies to the victim's first k
// pulls are lost. Re-pulls leave RoundTimeout, 2·RoundTimeout, 4·… after
// the one before, so the (k+1)-th pull — the one that is answered — leaves
// within RoundTimeout·2^k of the first: 64 ms here, where a fixed 50 ms
// between pulls (the constant this pacing replaced) took k·50 = 300 ms.
func TestBatchRepullRunsAtRoundPace(t *testing.T) {
	const n, victim, k = 3, 2, 6
	const roundTimeout = time.Millisecond
	reps, pulls, left := starvedGroup(t, k*(n-1), roundTimeout, time.Hour)
	ch, _ := reps[0].SubmitNext(1, "a")
	waitApplied(t, ch, 5*time.Second, "the command at its proposer")
	start := time.Now()
	for reps[victim].Stats().Applied == 0 {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("victim never applied slot 1 (%d pull replies still to lose, %d pulls sent)", left(), pulls.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
	took := time.Since(start)
	if left() != 0 || pulls.Load() != (k+1)*(n-1) {
		t.Fatalf("victim applied after %d pulls with %d replies still to lose, want %d pulls and 0", pulls.Load(), left(), (k+1)*(n-1))
	}
	if limit := 3 * roundTimeout << k; took > limit {
		t.Fatalf("victim applied %v after its proposer, want within %v: re-pulls are not at round pace", took, limit)
	}
}

// TestUnanswerablePullSettlesAtTheHeartbeat: nobody ever answers the
// victim. Its re-pull interval doubles from RoundTimeout until it reaches
// SyncEvery, and from there the heartbeat's tick is the only re-pull: one
// broadcast per SyncEvery, not a pull per round timeout for ever.
func TestUnanswerablePullSettlesAtTheHeartbeat(t *testing.T) {
	const n, victim = 3, 2
	const roundTimeout, syncEvery = time.Millisecond, 40 * time.Millisecond
	reps, pulls, _ := starvedGroup(t, 1<<30, roundTimeout, syncEvery)
	ch, _ := reps[0].SubmitNext(1, "a")
	waitApplied(t, ch, 5*time.Second, "the command at its proposer")
	// 1 + 2 + 4 + … + 32 ms of doubling, then the heartbeat alone.
	time.Sleep(2 * syncEvery)
	settled := pulls.Load()
	if settled < 3*(n-1) {
		t.Fatalf("victim sent %d pulls while backing off, want the first one and several re-pulls", settled)
	}
	const beats = 5
	time.Sleep(beats * syncEvery)
	if got := (pulls.Load() - settled) / (n - 1); got < beats-2 || got > beats+1 {
		t.Fatalf("victim re-pulled %d times in %d heartbeats once backed off, want one per heartbeat", got, beats)
	}
	if reps[victim].Stats().Applied != 0 {
		t.Fatal("victim applied a batch nobody sent it")
	}
}

// TestSyncLimiterIsKeyedOnProgress: a targeted sync message that starts
// beyond everything sent to the peer so far always goes; only a repeat —
// the same first slot or an earlier one — waits out syncRateLimit, and an
// admitted repeat does not lower the mark. Peers do not share a limiter.
func TestSyncLimiterIsKeyedOnProgress(t *testing.T) {
	m := make(map[core.ProcessID]syncSent)
	t0 := time.Unix(1, 0)
	for i, tc := range []struct {
		peer    core.ProcessID
		slot    uint64
		after   time.Duration
		limited bool
	}{
		{1, 5, 0, false},                                    // nothing sent yet
		{1, 5, time.Millisecond, true},                      // a repeat
		{1, 6, time.Millisecond, false},                     // news, inside the same interval
		{1, 7, time.Millisecond, false},                     // and again
		{1, 6, 2 * time.Millisecond, true},                  // behind the mark
		{2, 6, 2 * time.Millisecond, false},                 // another peer
		{1, 5, time.Millisecond + syncRateLimit, false},     // a repeat, an interval after the last send
		{1, 7, 2*time.Millisecond + syncRateLimit, true},    // the mark stayed at 7
		{1, 8, 2*time.Millisecond + syncRateLimit, false},   // news
		{1, 8, 2*time.Millisecond + 2*syncRateLimit, false}, // a repeat, an interval later
	} {
		if got := rateLimited(m, tc.peer, tc.slot, t0.Add(tc.after)); got != tc.limited {
			t.Fatalf("step %d: message for peer %d from slot %d at +%v limited = %v, want %v", i, tc.peer, tc.slot, tc.after, got, tc.limited)
		}
	}
}
