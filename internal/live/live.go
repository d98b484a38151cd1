// Package live is the real-time deployment runtime: it runs the SAME
// core.Instance algorithms (OneThirdRule, LastVoting) that every other
// layer of this repo executes inside the deterministic simulator, but over
// real asynchronous transports with real clocks — the first layer of the
// codebase that escapes simulated time.
//
// The paper's separation of concerns is preserved exactly. An algorithm
// is still the pair ⟨S_p^r, T_p^r⟩ behind core.Instance, and it still
// sees only communication-closed rounds and heard-of sets. What changes
// is the implementation layer below it (the role Algorithms 2–4 play in
// the paper): instead of a simulated good period, a per-round TIMEOUT
// bounds how long a process waits for round-r messages. When the network
// behaves — messages arrive within the timeout — every process hears
// everyone and the rounds realize P_otr-style predicates; when it does
// not, heard-of sets shrink, which at the algorithm layer is
// indistinguishable from the transmission faults of §2. Safety never
// depends on the timeout; only liveness does, exactly the paper's split.
//
// The runtime has three levels:
//
//   - Transport: best-effort envelope delivery between the n processes of
//     a group. ChanNetwork is the in-process goroutine/channel transport
//     (tests, single-binary deployments); TCPTransport speaks
//     length-prefixed frames over real sockets (multi-process
//     deployments). WithFaults wraps any transport with message loss,
//     delay, and process pause injection — faults are a property of the
//     environment, never of the algorithm.
//   - Round driver (slotRun): paces one core.Instance through rounds.
//     Each round broadcasts S_p^r, collects round-r messages until all n
//     arrived, those heard settle the round (core.Settling: LastVoting's
//     phase-1 vote, a majority of acks), any peer
//     is observed already past r (the jump rule that keeps processes
//     round-aligned — see node.go), or the timeout fires, then applies
//     T_p^r. Messages for future rounds are buffered;
//     rounds are delivered to the instance in strictly increasing order,
//     as the core.Instance contract requires.
//   - Replica: a replicated-state-machine service over a sequence of
//     consensus slots — the live counterpart of internal/rsm. Commands
//     ride the round messages as identified batches (the decided
//     core.Value is a batch id, unique by construction: proposer ⊕ counter; every
//     proposal merges the commands of ALL replicas its proposer has heard
//     of, which reach it by best-effort KindForward), client sessions
//     carry (client, seq) identities with high-water-mark dedup
//     so every command applies exactly once, and decided slots propagate
//     to laggards, each with its batch, through a pull/push sync protocol
//     that doubles as the decide-retransmission and crash-rejoin path (and
//     stands in for LastVoting's decide round: whoever adopted the vote
//     decides on the acks, two rounds in, and closes its run; whoever
//     missed the vote is pushed the decision).
//
// Everything here is intentionally NOT deterministic: runs race real
// goroutines against real timers. Tests therefore assert invariants
// (agreement, exactly-once apply, bounded catch-up) rather than byte
// outputs; the simulator layers retain the byte-determinism contracts.
// See DESIGN.md §9 for the full simulation-vs-live boundary table.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/xrand"
)

// Kind discriminates envelope payloads on the wire.
type Kind uint8

const (
	// KindRound carries one consensus round message S_p^r and the batch
	// riding it, if any (appendRound).
	KindRound Kind = iota + 1
	// KindBatch is reserved and never sent; a replica counts one Malformed.
	KindBatch
	_
	// KindSync pushes decided slots to a laggard, each with its batch
	// (SyncPairs has the encoding).
	KindSync
	// KindSyncPull asks peers for decisions from a slot on (uvarint
	// first slot wanted).
	KindSyncPull
	// KindForward tells peers which commands the sender has accepted but
	// cannot propose yet: the BatchCodec encoding of its unapplied pending
	// prefix (no batch id — a forward is never decided, only merged into
	// the receivers' next proposals). Best effort and never persisted.
	KindForward
)

// Envelope is the unit of transport delivery. Group multiplexes several
// replication groups over one transport (see Mux); Slot and Round
// position consensus messages; From identifies the sender (the runtime is
// not Byzantine-tolerant — peers are trusted, as in the paper).
type Envelope struct {
	Group   uint32
	Slot    uint64
	Round   core.Round
	From    core.ProcessID
	Kind    Kind
	Payload []byte
}

// Transport is best-effort, FIFO-less envelope delivery among the n
// processes of a deployment. Send must never block indefinitely and may
// drop (a dropped message is a transmission fault — the HO abstraction
// absorbs it). Recv returns the inbound channel; it is closed by Close.
type Transport interface {
	Send(to core.ProcessID, env Envelope)
	Recv() <-chan Envelope
	Close() error
}

// Codec translates algorithm round messages to bytes. Implementations
// live next to their algorithm (otr.WireCodec, lastvoting.WireCodec) so
// unexported payload types stay unexported. A nil core.Message (the HO
// model's null message, "sends nothing relevant") must round-trip: the
// live runtime still transmits it, because hearing a process — even with
// a null payload — is membership in HO(p, r), which algorithms like
// OneThirdRule count.
// Names reports the value a message names, whose batch then rides its
// envelope (appendRound); a codec may name nothing.
type Codec interface {
	Encode(m core.Message) ([]byte, error)
	Decode(b []byte) (core.Message, error)
	Names(m core.Message) (core.Value, bool)
}

// maxFrame bounds a single decoded envelope (and a TCP frame).
const maxFrame = 1 << 20

// maxEnvelopeHeader bounds what AppendEnvelope writes before the payload:
// four uvarints and the kind byte.
const maxEnvelopeHeader = 4*binary.MaxVarintLen64 + 1

// AppendEnvelope encodes env after dst: uvarint group, slot, round, from,
// one kind byte, then the raw payload.
//
//holint:hotpath
func AppendEnvelope(dst []byte, env Envelope) []byte {
	dst = binary.AppendUvarint(dst, uint64(env.Group))
	dst = binary.AppendUvarint(dst, env.Slot)
	dst = binary.AppendUvarint(dst, uint64(env.Round))
	dst = binary.AppendUvarint(dst, uint64(env.From))
	dst = append(dst, byte(env.Kind))
	return append(dst, env.Payload...)
}

// errMalformed reports an undecodable envelope or payload. The
// per-field variants below wrap it once, at package level, so the
// decode path returns a preallocated sentinel instead of formatting a
// fresh error per rejected frame — a hostile peer spraying garbage
// must not be able to drive the receiver's allocator. All of them
// satisfy errors.Is(err, errMalformed).
var (
	errMalformed   = errors.New("live: malformed message")
	errFrameTooBig = fmt.Errorf("%w: frame exceeds %d bytes", errMalformed, maxFrame)
	errBadGroup    = fmt.Errorf("%w: group", errMalformed)
	errBadSlot     = fmt.Errorf("%w: slot", errMalformed)
	errBadRound    = fmt.Errorf("%w: round", errMalformed)
	errBadSender   = fmt.Errorf("%w: sender", errMalformed)
	errBadKind     = fmt.Errorf("%w: kind", errMalformed)
)

// DecodeEnvelope parses one encoded envelope. The returned payload
// aliases b.
//
//holint:hotpath
func DecodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	if len(b) > maxFrame {
		return env, errFrameTooBig
	}
	group, n := binary.Uvarint(b)
	if n <= 0 || group > 1<<32-1 {
		return env, errBadGroup
	}
	b = b[n:]
	slot, n := binary.Uvarint(b)
	if n <= 0 {
		return env, errBadSlot
	}
	b = b[n:]
	round, n := binary.Uvarint(b)
	if n <= 0 || round > 1<<31 {
		return env, errBadRound
	}
	b = b[n:]
	from, n := binary.Uvarint(b)
	if n <= 0 || from >= uint64(core.MaxProcesses) {
		return env, errBadSender
	}
	b = b[n:]
	if len(b) < 1 {
		return env, errBadKind
	}
	kind := Kind(b[0])
	if kind < KindRound || kind > KindForward {
		return env, errBadKind
	}
	env = Envelope{
		Group: uint32(group), Slot: slot, Round: core.Round(round),
		From: core.ProcessID(from), Kind: kind, Payload: b[1:],
	}
	return env, nil
}

// Faults is the transport-layer fault environment of one process: iid
// message loss, uniform send delay, and pause (a paused process neither
// sends nor hears — the live analogue of a crashed process whose
// volatile timers keep running, or of a network partition of one).
// All knobs may be flipped while traffic flows.
type Faults struct {
	mu        sync.Mutex
	rng       *xrand.Rand
	loss      float64
	delayLo   time.Duration
	delayHi   time.Duration
	paused    bool
	dropped   int
	delivered int
}

// NewFaults returns a fault environment with no faults enabled. seed
// drives the loss/delay draws (real time still makes runs nondeterministic;
// the seed only decouples tests from each other).
func NewFaults(seed uint64) *Faults {
	return &Faults{rng: xrand.New(seed)}
}

// SetLoss sets the iid per-message drop probability in [0, 1).
func (f *Faults) SetLoss(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loss = p
}

// SetDelay sets the uniform per-message send delay range.
func (f *Faults) SetDelay(lo, hi time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delayLo, f.delayHi = lo, hi
}

// SetPaused pauses or resumes the process: while paused every inbound and
// outbound message is dropped.
func (f *Faults) SetPaused(p bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paused = p
}

// Dropped returns the number of messages this environment has eaten.
func (f *Faults) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// sendFate draws the fate of one outbound message.
func (f *Faults) sendFate() (drop bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.paused || (f.loss > 0 && f.rng.Bool(f.loss)) {
		f.dropped++
		return true, 0
	}
	f.delivered++
	if f.delayHi > f.delayLo {
		return false, f.delayLo + time.Duration(f.rng.Intn(int(f.delayHi-f.delayLo)))
	}
	return false, f.delayLo
}

// recvDrop reports whether an inbound message is eaten (pause only: loss
// is charged once, on the sending side).
func (f *Faults) recvDrop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.paused {
		f.dropped++
		return true
	}
	return false
}

// faultTransport wraps a Transport with a Faults environment.
type faultTransport struct {
	inner Transport
	f     *Faults
	out   chan Envelope
	wg    sync.WaitGroup
}

// WithFaults wraps t so that every send and receive passes through the
// fault environment f. Close closes the inner transport and waits for
// the pump goroutine to drain out.
func WithFaults(t Transport, f *Faults) Transport {
	ft := &faultTransport{inner: t, f: f, out: make(chan Envelope, 1024)}
	ft.wg.Add(1)
	go ft.pump()
	return ft
}

// Send implements Transport.
func (ft *faultTransport) Send(to core.ProcessID, env Envelope) {
	drop, delay := ft.f.sendFate()
	if drop {
		return
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { ft.inner.Send(to, env) })
		return
	}
	ft.inner.Send(to, env)
}

// Recv implements Transport.
func (ft *faultTransport) Recv() <-chan Envelope { return ft.out }

// Close implements Transport: it closes the inner transport (whose
// Recv close terminates the pump) and awaits the pump's exit, so no
// goroutine outlives the transport.
func (ft *faultTransport) Close() error {
	err := ft.inner.Close()
	ft.wg.Wait()
	return err
}

// pump filters the inbound stream through the pause gate. It exits
// when the inner transport's Recv channel closes (on Close).
func (ft *faultTransport) pump() {
	defer ft.wg.Done()
	for env := range ft.inner.Recv() {
		if ft.f.recvDrop() {
			continue
		}
		select {
		case ft.out <- env:
		default: // backpressure = loss, the HO-friendly overflow policy
		}
	}
	close(ft.out)
}

// Mux multiplexes several replication groups over one Transport: each
// group registers a Link, envelopes route by Envelope.Group, and
// unroutable envelopes are dropped. One server process hosting a replica
// of every group (the cmd/hoserve deployment shape) runs one transport
// and one Mux.
type Mux struct {
	tr Transport

	mu     sync.Mutex
	groups map[uint32]chan Envelope
}

// NewMux starts routing t's inbound stream. Close the underlying
// transport to stop it; every link's Recv channel closes when the
// transport's does.
func NewMux(t Transport) *Mux {
	m := &Mux{tr: t, groups: make(map[uint32]chan Envelope)}
	//holint:allow goleak route's lifetime IS the transport's: the underlying Recv close drains and exits it, and Mux deliberately exposes no Close of its own (the transport owns the lifecycle)
	go m.route()
	return m
}

// Link registers a group endpoint. The returned Link implements
// Transport scoped to that group. buffer sizes its inbound channel.
func (m *Mux) Link(group uint32, buffer int) *Link {
	if buffer < 1 {
		buffer = 256
	}
	ch := make(chan Envelope, buffer)
	m.mu.Lock()
	m.groups[group] = ch
	m.mu.Unlock()
	return &Link{mux: m, group: group, in: ch}
}

// route demultiplexes until the transport closes, then closes every
// group channel.
func (m *Mux) route() {
	for env := range m.tr.Recv() {
		m.mu.Lock()
		ch := m.groups[env.Group]
		m.mu.Unlock()
		if ch == nil {
			continue
		}
		select {
		case ch <- env:
		default: // a slow group loses messages, not the whole process
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ch := range m.groups {
		close(ch)
	}
}

// Varint shorthands shared by the payload encoders.
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }
func uvarint(b []byte) (uint64, int)            { return binary.Uvarint(b) }
func varint(b []byte) (int64, int)              { return binary.Varint(b) }

// Link is one group's view of a multiplexed transport.
type Link struct {
	mux   *Mux
	group uint32
	in    chan Envelope
}

var _ Transport = (*Link)(nil)

// Send implements Transport, stamping the link's group.
func (l *Link) Send(to core.ProcessID, env Envelope) {
	env.Group = l.group
	l.mux.tr.Send(to, env)
}

// Recv implements Transport.
func (l *Link) Recv() <-chan Envelope { return l.in }

// Close implements Transport. Closing a link is a no-op: the shared
// transport owns the lifecycle (close IT to stop every group).
func (l *Link) Close() error { return nil }
