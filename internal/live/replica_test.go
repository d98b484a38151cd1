package live

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/otr"
)

// strCodec is a minimal BatchCodec over string commands.
type strCodec struct{}

func (strCodec) AppendEntries(dst []byte, entries []Entry[string]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Client)
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(e.Cmd)))
		dst = append(dst, e.Cmd...)
	}
	return dst
}

func (strCodec) DecodeEntries(src []byte) ([]Entry[string], error) {
	count, n := binary.Uvarint(src)
	if n <= 0 || count > 1<<16 {
		return nil, fmt.Errorf("bad count")
	}
	src = src[n:]
	out := make([]Entry[string], 0, count)
	for i := uint64(0); i < count; i++ {
		var e Entry[string]
		var n int
		if e.Client, n = binary.Uvarint(src); n <= 0 {
			return nil, fmt.Errorf("bad client")
		}
		src = src[n:]
		if e.Seq, n = binary.Uvarint(src); n <= 0 {
			return nil, fmt.Errorf("bad seq")
		}
		src = src[n:]
		l, n := binary.Uvarint(src)
		if n <= 0 || uint64(len(src)-n) < l {
			return nil, fmt.Errorf("bad cmd")
		}
		e.Cmd = string(src[n : n+int(l)])
		src = src[n+int(l):]
		out = append(out, e)
	}
	return out, nil
}

// applyLog records one replica's applied commands.
type applyLog struct {
	mu   sync.Mutex
	cmds []string
}

func (l *applyLog) hook(_ uint64, e Entry[string]) any {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cmds = append(l.cmds, e.Cmd)
	return len(l.cmds)
}

func (l *applyLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.cmds...)
}

// newTestGroup builds n replicas over a channel network, one fault
// environment per process.
func newTestGroup(t *testing.T, n int, seed uint64) (reps []*Replica[string], logs []*applyLog, faults []*Faults, stop func()) {
	t.Helper()
	net, err := NewChanNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	reps = make([]*Replica[string], n)
	logs = make([]*applyLog, n)
	faults = make([]*Faults, n)
	for p := 0; p < n; p++ {
		faults[p] = NewFaults(seed + uint64(p))
		logs[p] = &applyLog{}
		rep, err := NewReplica(ReplicaConfig[string]{
			Self:      core.ProcessID(p),
			N:         n,
			Algorithm: otr.Algorithm{},
			Msg:       otr.WireCodec{},
			Batch:     strCodec{},
			Transport: WithFaults(net.Transport(core.ProcessID(p)), faults[p]),
			Apply:     logs[p].hook,
			// Brisk pacing keeps the tests snappy; correctness must not
			// depend on the timeout value.
			RoundTimeout: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[p] = rep
	}
	for _, r := range reps {
		r.Start()
	}
	return reps, logs, faults, func() {
		for _, r := range reps {
			r.Stop()
		}
		net.Close()
	}
}

// waitApplied asserts ch resolves within d.
func waitApplied(t *testing.T, ch <-chan ApplyResult, d time.Duration, what string) ApplyResult {
	t.Helper()
	select {
	case res, ok := <-ch:
		if !ok {
			t.Fatalf("%s: replica stopped before commit", what)
		}
		return res
	case <-time.After(d):
		t.Fatalf("%s: not applied within %v", what, d)
	}
	return ApplyResult{}
}

// requireSameLogs waits for the replicas to reach one decision log (a
// trailing slot may still be propagating when the waiters fire), then
// asserts the applied command sequences match and nobody observed a
// divergent decision.
func requireSameLogs(t *testing.T, reps []*Replica[string], logs []*applyLog) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		wantLen, wantHash := reps[0].LogHash()
		same := true
		for _, r := range reps[1:] {
			if l, h := r.LogHash(); l != wantLen || h != wantHash {
				same = false
				break
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			for p, r := range reps {
				l, h := r.LogHash()
				t.Logf("replica %d: %d slots, hash %#x", p, l, h)
			}
			t.Fatal("decision logs never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := logs[0].snapshot()
	for p := 1; p < len(logs); p++ {
		got := logs[p].snapshot()
		if len(got) != len(want) {
			t.Fatalf("replica %d applied %d commands, replica 0 applied %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %d command %d = %q, replica 0 has %q", p, i, got[i], want[i])
			}
		}
	}
	for p, r := range reps {
		if st := r.Stats(); st.Divergent != 0 {
			t.Fatalf("replica %d observed %d divergent decisions", p, st.Divergent)
		}
	}
}

func TestReplicaCommitsAcrossGroup(t *testing.T) {
	reps, logs, _, stop := newTestGroup(t, 3, 100)
	defer stop()

	var chans []<-chan ApplyResult
	for i := 0; i < 10; i++ {
		ch, _ := reps[i%3].SubmitNext(uint64(i%3)+1, fmt.Sprintf("cmd-%d", i))
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	// Committed-on-submitter implies applied there; give the other
	// replicas a beat to apply the tail, then compare logs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := []ReplicaStats{reps[0].Stats(), reps[1].Stats(), reps[2].Stats()}
		if st[0].Committed == st[1].Committed && st[1].Committed == st[2].Committed && st[0].Committed >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit counts never converged: %d/%d/%d", st[0].Committed, st[1].Committed, st[2].Committed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	requireSameLogs(t, reps, logs)
}

func TestReplicaCommitsUnderLoss(t *testing.T) {
	reps, logs, faults, stop := newTestGroup(t, 3, 200)
	defer stop()
	for _, f := range faults {
		f.SetLoss(0.2)
	}

	var chans []<-chan ApplyResult
	for i := 0; i < 20; i++ {
		ch, _ := reps[i%3].SubmitNext(uint64(i%3)+1, fmt.Sprintf("lossy-%d", i))
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		waitApplied(t, ch, 30*time.Second, fmt.Sprintf("lossy-%d", i))
	}
	for _, f := range faults {
		f.SetLoss(0)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, b, c := reps[0].Stats().Committed, reps[1].Stats().Committed, reps[2].Stats().Committed
		if a == b && b == c && a >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit counts never converged under loss: %d/%d/%d", a, b, c)
		}
		time.Sleep(2 * time.Millisecond)
	}
	requireSameLogs(t, reps, logs)
}

// TestReplicaPrunesAppliedBatches pins the GC horizon: batch contents
// whose slot every replica has applied must be released, so a
// long-running server's memory tracks the in-flight window, not the
// write history.
func TestReplicaPrunesAppliedBatches(t *testing.T) {
	reps, _, _, stop := newTestGroup(t, 3, 400)
	defer stop()

	const total = 60
	var chans []<-chan ApplyResult
	for i := 0; i < total; i++ {
		ch, _ := reps[i%3].SubmitNext(uint64(i%3)+1, fmt.Sprintf("gc-%d", i))
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		waitApplied(t, ch, 20*time.Second, fmt.Sprintf("gc-%d", i))
	}
	// Quiesce: convergence plus at least one idle heartbeat so every
	// replica has observed its peers' final commit indexes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		worst := 0
		for _, r := range reps {
			if h := r.Stats().BatchesHeld; h > worst {
				worst = h
			}
		}
		if worst <= 8 {
			break
		}
		if time.Now().After(deadline) {
			for p, r := range reps {
				t.Logf("replica %d holds %d batches", p, r.Stats().BatchesHeld)
			}
			t.Fatalf("batches never pruned: worst replica holds %d after %d commands", worst, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaDuplicateSubmissionAppliesOnce(t *testing.T) {
	reps, logs, _, stop := newTestGroup(t, 3, 300)
	defer stop()

	ch, err := reps[0].Submit(9, 1, "only-once")
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, ch, 10*time.Second, "first submission")
	dup, err := reps[0].Submit(9, 1, "only-once")
	if err != nil {
		t.Fatal(err)
	}
	if res := waitApplied(t, dup, 5*time.Second, "retry"); !res.Dup {
		t.Fatalf("retry of an applied seq reported %+v, want Dup", res)
	}
	if _, err := reps[0].Submit(9, 0, "zero"); err == nil {
		t.Fatal("sequence 0 accepted")
	}
	count := 0
	for _, c := range logs[0].snapshot() {
		if c == "only-once" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("command applied %d times, want exactly once", count)
	}
}

// TestSubmitAfterStopReleasesTheWaiter: Stop sweeps the waiters once, so
// a submission arriving after it must be handed a channel that is already
// closed — "closes without a value if the replica stops first" — rather
// than one nobody is left to close, which blocks a caller without a
// deadline forever.
func TestSubmitAfterStopReleasesTheWaiter(t *testing.T) {
	reps, _, _, stop := newTestGroup(t, 3, 5)
	stop()
	next, seq := reps[0].SubmitNext(1, "late")
	named, err := reps[0].Submit(2, 1, "later")
	if err != nil {
		t.Fatal(err)
	}
	for what, ch := range map[string]<-chan ApplyResult{"SubmitNext": next, "Submit": named} {
		select {
		case res, ok := <-ch:
			if ok {
				t.Errorf("%s after Stop resolved with %+v, want a closed channel", what, res)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s after Stop left its waiter open", what)
		}
	}
	if seq != 0 {
		t.Errorf("SubmitNext after Stop consumed sequence %d", seq)
	}
}
