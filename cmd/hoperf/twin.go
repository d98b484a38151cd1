package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/shard"
	"heardof/internal/wal"
)

// The traced twin: the same 3-node, 2-group LastVoting KV service as
// livekv.NewCluster / hoserve, assembled here from exported constructors
// only — live.NewMux, Mux.Link, live.NewReplica, shard.HashRouter,
// kvstore.StateMachine, wal.Open — so that Transport, Persister and Apply
// can be wrapped in the timing decorators below. End-to-end numbers never
// come from the twin; trace.overhead_frac measures how far it drifts from
// the real assembly.

// tracedLink times every Transport.Send of one replica.
type tracedLink struct {
	inner live.Transport
	tl    *timeline
}

func (l *tracedLink) Send(to core.ProcessID, env live.Envelope) {
	start := l.tl.now()
	l.inner.Send(to, env)
	s := span(callSend, start, l.tl.now(), env.Slot)
	s.bytes, s.round, s.envKind = uint16(min(envelopeSize(env), 1<<16-1)), uint16(min(env.Round, 1<<16-1)), env.Kind
	l.tl.record(s)
}

func (l *tracedLink) Recv() <-chan live.Envelope { return l.inner.Recv() }

func (l *tracedLink) Close() error { return l.inner.Close() }

// envelopeSize is len(live.AppendEnvelope(nil, env)) without the
// allocation (From is at most one byte, Group is set by the Link below).
func envelopeSize(env live.Envelope) int {
	var scratch [binary.MaxVarintLen64]byte
	return binary.PutUvarint(scratch[:], uint64(env.Group)) +
		binary.PutUvarint(scratch[:], env.Slot) +
		binary.PutUvarint(scratch[:], uint64(env.Round)) +
		1 + 1 + len(env.Payload)
}

// tracedPersister forwards every Persister call unchanged, counts the
// Save* calls, and times the Syncs that have something to make durable
// (a Sync with nothing saved since the last one is the store's no-op
// path, not a span) and the Snapshots.
type tracedPersister struct {
	inner live.Persister
	tl    *timeline
	// logLen reads the store's log length; nil when the inner persister
	// has no log to measure.
	logLen  func() int64
	lastLen int64
}

func (p *tracedPersister) saved(slot uint64) {
	p.tl.saves++
	p.tl.dirty = true
	if slot != 0 {
		p.tl.saveSlot = slot
	}
}

func (p *tracedPersister) SaveBatch(bid int64, contents []byte) {
	p.saved(0)
	p.inner.SaveBatch(bid, contents)
}

func (p *tracedPersister) SaveVote(slot uint64, state []byte) {
	p.saved(slot)
	p.inner.SaveVote(slot, state)
}

func (p *tracedPersister) SaveDecision(slot uint64, bid int64) {
	p.saved(slot)
	p.inner.SaveDecision(slot, bid)
}

func (p *tracedPersister) SaveApplied(slot uint64, bid int64, fresh []wal.ClientSeq) {
	p.saved(slot)
	p.inner.SaveApplied(slot, bid, fresh)
}

func (p *tracedPersister) Sync() error {
	if !p.tl.dirty {
		return p.inner.Sync()
	}
	start := p.tl.now()
	err := p.inner.Sync()
	p.tl.record(span(callSync, start, p.tl.now(), p.tl.saveSlot))
	p.tl.dirty = false
	if p.logLen != nil {
		if n := p.logLen(); n > p.lastLen {
			p.tl.logBytes += n - p.lastLen
			p.lastLen = n
		}
	}
	return err
}

func (p *tracedPersister) Snapshot(st *wal.State) error {
	start := p.tl.now()
	err := p.inner.Snapshot(st)
	p.tl.record(span(callSnapshot, start, p.tl.now(), uint64(len(st.Log))))
	if p.logLen != nil {
		p.lastLen = p.logLen() // the snapshot truncated the log
	}
	return err
}

// tracedApply times the Apply hook and notes when this node's own
// commands were applied (the end of an operation's "slot" phase).
func tracedApply(tl *timeline, own uint64, inner func(uint64, live.Entry[kvstore.Command]) any) func(uint64, live.Entry[kvstore.Command]) any {
	return func(slot uint64, e live.Entry[kvstore.Command]) any {
		start := tl.now()
		out := inner(slot, e)
		end := tl.now()
		tl.record(span(callApply, start, end, slot))
		if e.Client == own {
			for uint64(len(tl.ownApply)) <= e.Seq {
				tl.ownApply = append(tl.ownApply, 0)
			}
			tl.ownApply[e.Seq] = end
		}
		return out
	}
}

// kvBatchCodec is the twin's live.BatchCodec for kvstore commands — the
// same layout as livekv's unexported codec (count, then per entry the
// session identity, the op tag and two length-prefixed strings), so the
// twin moves the same bytes per batch.
type kvBatchCodec struct{}

func (kvBatchCodec) AppendEntries(dst []byte, entries []live.Entry[kvstore.Command]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Client)
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = append(dst, byte(e.Cmd.Op))
		dst = binary.AppendUvarint(dst, uint64(len(e.Cmd.Key)))
		dst = append(dst, e.Cmd.Key...)
		dst = binary.AppendUvarint(dst, uint64(len(e.Cmd.Value)))
		dst = append(dst, e.Cmd.Value...)
	}
	return dst
}

var errBadBatch = errors.New("hoperf: malformed batch")

func (kvBatchCodec) DecodeEntries(src []byte) ([]live.Entry[kvstore.Command], error) {
	const maxString, maxEntries = 1 << 16, 1 << 16
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(src)
		if n <= 0 {
			return 0, false
		}
		src = src[n:]
		return v, true
	}
	str := func() (string, bool) {
		l, ok := uv()
		if !ok || l > maxString || uint64(len(src)) < l {
			return "", false
		}
		s := string(src[:l])
		src = src[l:]
		return s, true
	}
	count, ok := uv()
	if !ok || count > maxEntries {
		return nil, errBadBatch
	}
	entries := make([]live.Entry[kvstore.Command], 0, count)
	for i := uint64(0); i < count; i++ {
		var e live.Entry[kvstore.Command]
		var ok1, ok2, ok3, ok4 bool
		e.Client, ok1 = uv()
		e.Seq, ok2 = uv()
		if !ok1 || !ok2 || e.Seq == 0 || len(src) < 1 {
			return nil, errBadBatch
		}
		e.Cmd.Op = kvstore.Op(src[0])
		src = src[1:]
		e.Cmd.Key, ok3 = str()
		e.Cmd.Value, ok4 = str()
		if !ok3 || !ok4 || e.Cmd.Op < kvstore.OpPut || e.Cmd.Op > kvstore.OpGet {
			return nil, errBadBatch
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// twinGroup is one node's replica of one group with its state machine.
type twinGroup struct {
	rep   *live.Replica[kvstore.Command]
	store *wal.Store
	tl    *timeline

	mu sync.Mutex
	sm *kvstore.StateMachine
}

// twinRead is what the apply hook returns for an OpGet.
type twinRead struct {
	value string
	found bool
}

// twinNode is one server process's stack, as livekv.NewNode builds it.
type twinNode struct {
	self   core.ProcessID
	tr     live.Transport
	groups []*twinGroup
}

// twin is the traced deployment.
type twin struct {
	epoch  time.Time
	nodes  []*twinNode
	faults []*live.Faults
	net    *live.ChanNetwork // nil on the TCP twin
	ops    [][]opSpan        // per loader client: single writer each
}

// newTwin assembles and starts the traced deployment for spec; tcp swaps
// the channel network for three live.NewTCP loopback endpoints (the
// in-process twin of three hoserve processes).
func newTwin(spec liveSpec, tcp bool, dataDir string, faultSeed uint64, clients int) (*twin, error) {
	tw := &twin{epoch: time.Now(), ops: make([][]opSpan, clients)}
	var transports []live.Transport
	if tcp {
		trs, err := tcpTransports()
		if err != nil {
			return nil, err
		}
		transports = trs
	} else {
		net, err := live.NewChanNetwork(liveNodes, 0)
		if err != nil {
			return nil, err
		}
		tw.net = net
		for p := 0; p < liveNodes; p++ {
			transports = append(transports, net.Transport(core.ProcessID(p)))
		}
	}
	for p := 0; p < liveNodes; p++ {
		// The same fault seeding as livekv.NewCluster, so the lossy twin
		// draws the fates the lossy cluster draws.
		f := live.NewFaults(faultSeed + uint64(p)*0x9e3779b9)
		spec.applyFaults(f)
		tw.faults = append(tw.faults, f)
		dir := ""
		if dataDir != "" {
			dir = filepath.Join(dataDir, fmt.Sprintf("node-%d", p))
		}
		nd, err := newTwinNode(tw.epoch, core.ProcessID(p), live.WithFaults(transports[p], f), dir)
		if err != nil {
			for _, t := range transports[p+1:] {
				t.Close()
			}
			tw.close()
			return nil, fmt.Errorf("twin node %d: %w", p, err)
		}
		tw.nodes = append(tw.nodes, nd)
	}
	for _, nd := range tw.nodes {
		for _, g := range nd.groups {
			g.rep.Start()
		}
	}
	return tw, nil
}

// newTwinNode mirrors livekv.NewNode, decorators added.
func newTwinNode(epoch time.Time, self core.ProcessID, tr live.Transport, dataDir string) (*twinNode, error) {
	nd := &twinNode{self: self, tr: tr}
	mux := live.NewMux(tr)
	own := uint64(self) + 1
	for g := 0; g < liveGroups; g++ {
		tl := newTimeline(int(self), g, epoch)
		gr := &twinGroup{sm: kvstore.NewStateMachine(), tl: tl}
		rcfg := live.ReplicaConfig[kvstore.Command]{
			Self:      self,
			N:         liveNodes,
			Algorithm: lastvoting.Algorithm{},
			Msg:       lastvoting.WireCodec{},
			Batch:     kvBatchCodec{},
			Transport: &tracedLink{inner: mux.Link(uint32(g), 0), tl: tl},
			Apply: tracedApply(tl, own, func(_ uint64, e live.Entry[kvstore.Command]) any {
				gr.mu.Lock()
				defer gr.mu.Unlock()
				gr.sm.Apply(e.Cmd)
				if e.Cmd.Op == kvstore.OpGet {
					v, ok := gr.sm.Get(e.Cmd.Key)
					return twinRead{value: v, found: ok}
				}
				return nil
			}),
			RoundTimeout: roundTimeout,
			MaxBatch:     maxBatch,
		}
		if dataDir != "" {
			store, st, err := wal.Open(filepath.Join(dataDir, fmt.Sprintf("group-%d", g)), wal.Options{})
			if err != nil {
				nd.close()
				return nil, fmt.Errorf("group %d store: %w", g, err)
			}
			gr.store = store
			if err := gr.sm.RestoreSnapshot(st.AppState); err != nil {
				nd.groups = append(nd.groups, gr)
				nd.close()
				return nil, fmt.Errorf("group %d snapshot: %w", g, err)
			}
			rcfg.Persist = &tracedPersister{inner: store, tl: tl, logLen: store.LogBytes, lastLen: store.LogBytes()}
			rcfg.Recovered = st
			rcfg.SnapshotState = func() []byte {
				gr.mu.Lock()
				defer gr.mu.Unlock()
				return gr.sm.AppendSnapshot(nil)
			}
		}
		rep, err := live.NewReplica(rcfg)
		if err != nil {
			nd.groups = append(nd.groups, gr)
			nd.close()
			return nil, err
		}
		gr.rep = rep
		nd.groups = append(nd.groups, gr)
	}
	return nd, nil
}

// close stops the node's replicas, then its transport, then its stores
// (the order livekv.Node.Close uses).
func (nd *twinNode) close() {
	for _, g := range nd.groups {
		if g.rep != nil {
			g.rep.Stop()
		}
	}
	nd.tr.Close()
	for _, g := range nd.groups {
		if g.store != nil {
			g.store.Close()
		}
	}
}

func (tw *twin) close() {
	for _, nd := range tw.nodes {
		nd.close()
	}
	if tw.net != nil {
		tw.net.Close()
	}
}

// do replicates one command through its owning group on the client's
// node and records the operation's span.
func (tw *twin) do(ctx context.Context, c *client, cmd kvstore.Command) (live.ApplyResult, error) {
	nd := tw.nodes[c.node]
	g := shard.HashRouter{}.Shard(shard.StringKey(cmd.Key), liveGroups)
	submit := int64(time.Since(tw.epoch))
	ch, seq := nd.groups[g].rep.SubmitNext(uint64(nd.self)+1, cmd)
	select {
	case res, ok := <-ch:
		if !ok {
			return res, errors.New("twin: node stopped before the command committed")
		}
		if c.id < len(tw.ops) {
			tw.ops[c.id] = append(tw.ops[c.id], opSpan{node: c.node, group: g, slot: res.Slot, seq: seq,
				submit: submit, ack: int64(time.Since(tw.epoch))})
		}
		return res, nil
	case <-ctx.Done():
		return live.ApplyResult{}, fmt.Errorf("twin: %v %q did not commit in time: %w", cmd.Op, cmd.Key, ctx.Err())
	}
}

func (tw *twin) put(ctx context.Context, c *client, key, value string) error {
	_, err := tw.do(ctx, c, kvstore.Command{Op: kvstore.OpPut, Key: key, Value: value})
	return err
}

func (tw *twin) get(ctx context.Context, c *client, key string) (string, bool, error) {
	res, err := tw.do(ctx, c, kvstore.Command{Op: kvstore.OpGet, Key: key})
	if err != nil {
		return "", false, err
	}
	rd, ok := res.Out.(twinRead)
	if !ok {
		return "", false, fmt.Errorf("twin: read of %q produced no result", key)
	}
	return rd.value, rd.found, nil
}

// statuses reports every node's per-group agreement state.
func (tw *twin) statuses() ([][]groupStatus, error) {
	out := make([][]groupStatus, len(tw.nodes))
	for p, nd := range tw.nodes {
		for _, g := range nd.groups {
			g.mu.Lock()
			fp := g.sm.Fingerprint()
			g.mu.Unlock()
			slots, hash := g.rep.LogHash()
			st := g.rep.Stats()
			out[p] = append(out[p], groupStatus{slots: slots, logHash: hash, state: fp,
				committed: st.Committed, divergent: st.Divergent, syncDecisions: st.SyncDecisions, rounds: st.Rounds})
		}
	}
	return out, nil
}

// timelines and allOps hand the recorded spans to the analysis; call
// them only after close.
func (tw *twin) timelines() []*timeline {
	var out []*timeline
	for _, nd := range tw.nodes {
		for _, g := range nd.groups {
			out = append(out, g.tl)
		}
	}
	return out
}

func (tw *twin) allOps() []opSpan {
	var out []opSpan
	for _, ops := range tw.ops {
		out = append(out, ops...)
	}
	return out
}
