package main

import (
	"runtime"
	"time"

	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
)

// Probes are isolated micro-runs of one layer with no goroutines, timers
// or I/O around it: what the layer costs when nothing else is in the way.
// They are reported as per-layer metrics next to the traced numbers.

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// coreProbes runs the CPU-side probes: the protocol core in lock-step, a
// LastVoting phase by hand, and the envelope codec.
func coreProbes(m metricSet) {
	probeCore(m)
	probeLastVoting(m)
	probeCodec(m)
}

// probeCore steps three ReplicaCores by hand: one command is submitted at
// core 0, every outbound envelope is delivered in FIFO order, until the
// command has applied everywhere — no goroutines, no transport, no clock.
// Its counts (steps and envelopes per slot) repeat exactly.
func probeCore(m metricSet) {
	const slots = 2000
	cores := make([]*live.ReplicaCore[kvstore.Command], liveNodes)
	for p := range cores {
		c, err := live.NewReplicaCore(live.CoreConfig[kvstore.Command]{
			Self: core.ProcessID(p), N: liveNodes, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{},
			Batch: kvBatchCodec{}, MaxBatch: maxBatch})
		if err != nil {
			return // the fixed configuration above is valid; nothing to report if it is not
		}
		cores[p] = c
	}
	type delivery struct {
		to  int
		env live.Envelope
	}
	var queue []delivery
	var stepNs []int64
	steps, envelopes := 0, 0
	step := func(p int, ev live.Event[kvstore.Command]) {
		t0 := time.Now()
		res := cores[p].Step(ev)
		stepNs = append(stepNs, int64(time.Since(t0)))
		steps++
		for _, o := range res.Out {
			for q := range cores {
				if q != p && (o.To == live.AllPeers || int(o.To) == q) {
					queue = append(queue, delivery{to: q, env: o.Env})
					envelopes++
				}
			}
		}
	}
	before, t0 := mallocs(), time.Now()
	for s := 1; s <= slots; s++ {
		step(0, live.Event[kvstore.Command]{Kind: live.EvSubmit, Client: 1, Seq: uint64(s),
			Cmd: kvstore.Command{Op: kvstore.OpPut, Key: "probe", Value: "v"}})
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			step(d.to, live.Event[kvstore.Command]{Kind: live.EvEnvelope, Env: d.env})
		}
	}
	elapsed, allocs := time.Since(t0), mallocs()-before
	applied := float64(cores[0].NextSlot() - 1)
	m["live.core.step_ns_p50"] = float64(quantile(stepNs, 0.50))
	m["live.core.steps_per_slot"] = ratio(float64(steps), applied)
	m["live.core.ns_per_slot"] = ratio(float64(elapsed), applied)
	m["live.core.allocs_per_slot"] = ratio(float64(allocs), applied)
	m["live.core.envelopes_per_slot"] = ratio(float64(envelopes), applied)
}

// probeLastVoting runs one LastVoting phase (four rounds, three processes,
// everyone heard) by hand, over and over.
func probeLastVoting(m metricSet) {
	const phases = 20000
	before, t0 := mallocs(), time.Now()
	decided := 0
	for i := 0; i < phases; i++ {
		insts := make([]core.Instance, liveNodes)
		for p := range insts {
			insts[p] = lastvoting.Algorithm{}.NewInstance(core.ProcessID(p), liveNodes, core.Value(i+p))
		}
		msgs := make([]core.IncomingMessage, 0, liveNodes)
		for r := core.Round(1); r <= 4; r++ {
			msgs = msgs[:0]
			for p, inst := range insts {
				if pl := inst.Send(r); pl != nil {
					msgs = append(msgs, core.IncomingMessage{From: core.ProcessID(p), Payload: pl})
				}
			}
			for _, inst := range insts {
				inst.Transition(r, msgs)
			}
		}
		if _, ok := insts[0].Decided(); ok {
			decided++
		}
	}
	if decided != phases {
		return // a fault-free phase always decides; report nothing rather than a wrong number
	}
	m["lastvoting.phase_ns"] = float64(time.Since(t0)) / phases
	m["lastvoting.allocs_per_phase"] = float64(mallocs()-before) / phases
}

// probeCodec times one envelope through AppendEnvelope + DecodeEnvelope.
func probeCodec(m metricSet) {
	const n = 200000
	env := live.Envelope{Group: 1, Slot: 123456, Round: 3, From: 2, Kind: live.KindRound, Payload: make([]byte, 24)}
	buf := make([]byte, 0, 128)
	t0 := time.Now()
	ok := 0
	for i := 0; i < n; i++ {
		env.Slot++
		buf = live.AppendEnvelope(buf[:0], env)
		if got, err := live.DecodeEnvelope(buf); err == nil && got.Slot == env.Slot {
			ok++
		}
	}
	if ok == n {
		m["live.codec.envelope_ns"] = float64(time.Since(t0)) / n
	}
}

// tcpProbes measures the TCP transport alone between two in-process
// live.NewTCP endpoints: ping-pong round trips, then a one-way stream.
func tcpProbes(m metricSet) {
	lns, err := listenLoopback(2)
	if err != nil {
		return
	}
	addrs := []string{lns[0].Addr().String(), lns[1].Addr().String()}
	a, err := live.NewTCP(0, lns[0], addrs)
	if err != nil {
		lns[0].Close()
		lns[1].Close()
		return
	}
	defer a.Close()
	b, err := live.NewTCP(1, lns[1], addrs)
	if err != nil {
		lns[1].Close()
		return
	}
	defer b.Close()
	env := live.Envelope{Kind: live.KindRound, Payload: make([]byte, 24)}
	recv := func(t *live.TCPTransport) bool {
		select {
		case <-t.Recv():
			return true
		case <-time.After(time.Second):
			return false
		}
	}
	// The first exchange dials both directions.
	a.Send(1, env)
	if !recv(b) {
		return
	}
	b.Send(0, env)
	if !recv(a) {
		return
	}
	var rtts []int64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		a.Send(1, env)
		if !recv(b) {
			return
		}
		b.Send(0, env)
		if !recv(a) {
			return
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	m["live.tcp.rtt_us_p50"] = float64(quantile(rtts, 0.50)) / 1e3

	// One-way stream in bursts below the peer queue's depth (beyond it the
	// transport drops by design): envelopes delivered per second.
	const burst, bursts = 512, 40
	t0 := time.Now()
	delivered := 0
	for i := 0; i < bursts; i++ {
		for j := 0; j < burst; j++ {
			a.Send(1, env)
		}
		for j := 0; j < burst; j++ {
			if !recv(b) {
				m["live.tcp.envelopes_per_s"] = 0
				return
			}
			delivered++
		}
	}
	m["live.tcp.envelopes_per_s"] = float64(delivered) / time.Since(t0).Seconds()
}
