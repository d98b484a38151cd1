package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/otr"
)

// starvingLink is a sender-side filter that keeps one replica from ever
// receiving batch contents unasked, and loses the replies to its first
// pull: every KindBatch a proposer broadcasts (Slot names the slot it
// was minted for) is dropped on the way to victim, and so are the first
// `lost` pull replies (Slot 0) — one per peer.
type starvingLink struct {
	Transport
	victim core.ProcessID
	mu     *sync.Mutex
	lost   *int
}

func (l starvingLink) Send(to core.ProcessID, env Envelope) {
	if to == l.victim && env.Kind == KindBatch {
		if env.Slot != 0 {
			return
		}
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

// TestBatchRepullFiresUnderSteadyTraffic is the starved-retry
// regression. A replica blocked on a decided batch whose pull reply was
// lost must re-pull after pullRetry. The shell used to re-arm that timer
// after EVERY event while blocked, so under steady traffic — events
// closer together than pullRetry, which a busy group always has — it
// never fired, and the lost reply waited for the idle heartbeat. Here
// the heartbeat is an hour away and the group stays busy: only a timer
// armed once per block gets the victim unstuck.
func TestBatchRepullFiresUnderSteadyTraffic(t *testing.T) {
	const n, victim = 3, 2
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var mu sync.Mutex
	lost := n - 1
	reps := make([]*Replica[string], n)
	for p := 0; p < n; p++ {
		var tr Transport = net.Transport(core.ProcessID(p))
		if p != victim {
			tr = starvingLink{Transport: tr, victim: victim, mu: &mu, lost: &lost}
		}
		reps[p], err = NewReplica(ReplicaConfig[string]{
			Self: core.ProcessID(p), N: n,
			Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, Batch: strCodec{},
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

	// Steady traffic: p0 commits a command every few milliseconds for the
	// whole test, so the victim's event loop never sees a quiet pullRetry.
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
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("victim never applied slot 1 (%d pull replies still to lose, peers at slot %d): the re-pull timer starved",
				lost, reps[0].Stats().Applied)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if lost != 0 {
		t.Fatalf("victim applied without losing its first pull replies (%d left): the test exercised nothing", lost)
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
