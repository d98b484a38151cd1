package live

import (
	"bytes"
	"testing"
	"time"

	"heardof/internal/core"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Group: 0, Slot: 1, Round: 1, From: 0, Kind: KindRound, Payload: []byte{1, 2, 3}},
		{Group: 7, Slot: 1 << 40, Round: 9999, From: 63, Kind: KindSyncPull, Payload: nil},
		{Group: 1<<32 - 1, Slot: 0, Round: 0, From: 5, Kind: KindBatch, Payload: bytes.Repeat([]byte{0xAB}, 512)},
		{Group: 3, From: 2, Kind: KindForward, Payload: strCodec{}.AppendEntries(nil, []Entry[string]{{Client: 3, Seq: 9, Cmd: "put"}})},
	}
	for _, want := range cases {
		enc := AppendEnvelope(nil, want)
		got, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if got.Group != want.Group || got.Slot != want.Slot || got.Round != want.Round ||
			got.From != want.From || got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestEnvelopeDecodeRejectsMalformed(t *testing.T) {
	good := AppendEnvelope(nil, Envelope{Group: 1, Slot: 2, Round: 3, From: 4, Kind: KindRound})
	cases := map[string][]byte{
		"empty":             nil,
		"truncated":         good[:2],
		"no kind":           good[:len(good)-1],
		"bad kind":          append(good[:len(good)-1:len(good)-1], 0xFF),
		"kind past forward": append(good[:len(good)-1:len(good)-1], byte(KindForward)+1),
		"bad sender":        AppendEnvelope(nil, Envelope{From: core.ProcessID(core.MaxProcesses), Kind: KindRound}),
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestChanNetworkDelivers(t *testing.T) {
	net, err := NewChanNetwork(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	t0, t2 := net.Transport(0), net.Transport(2)
	t0.Send(2, Envelope{Slot: 9, Kind: KindRound, Payload: []byte("hi")})
	select {
	case env := <-t2.Recv():
		if env.From != 0 || env.Slot != 9 || string(env.Payload) != "hi" {
			t.Fatalf("got %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("message never arrived")
	}
}

func TestFaultsPauseDropsBothDirections(t *testing.T) {
	net, err := NewChanNetwork(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	f := NewFaults(1)
	paused := WithFaults(net.Transport(0), f)
	other := net.Transport(1)

	f.SetPaused(true)
	paused.Send(1, Envelope{Kind: KindRound})
	other.Send(0, Envelope{Kind: KindRound})
	time.Sleep(20 * time.Millisecond)
	select {
	case env := <-other.Recv():
		t.Fatalf("paused process leaked a send: %+v", env)
	default:
	}
	select {
	case env := <-paused.Recv():
		t.Fatalf("paused process heard a message: %+v", env)
	default:
	}
	if f.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", f.Dropped())
	}

	f.SetPaused(false)
	other.Send(0, Envelope{Kind: KindRound, Payload: []byte("back")})
	select {
	case env := <-paused.Recv():
		if string(env.Payload) != "back" {
			t.Fatalf("got %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("resumed process hears nothing")
	}
}

func TestFaultsLossDropsRoughlyAtRate(t *testing.T) {
	net, err := NewChanNetwork(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	f := NewFaults(42)
	f.SetLoss(0.3)
	lossy := WithFaults(net.Transport(0), f)
	const total = 2000
	for i := 0; i < total; i++ {
		lossy.Send(1, Envelope{Kind: KindRound})
	}
	d := f.Dropped()
	if d < total/5 || d > total/2 {
		t.Fatalf("dropped %d of %d at rate 0.3 — loss injection broken", d, total)
	}
}
