package core

// Message is an algorithm-specific round-message payload. Payloads must be
// treated as immutable once returned from Send: the runner may deliver the
// same payload value to many processes.
type Message any

// IncomingMessage pairs a round-message payload with its sender.
type IncomingMessage struct {
	From    ProcessID
	Payload Message
}

// Senders returns the heard-of set implied by a message vector.
func Senders(msgs []IncomingMessage) PIDSet {
	var s PIDSet
	for _, m := range msgs {
		s = s.Add(m.From)
	}
	return s
}

// Instance is one process's instance of an HO algorithm: the pair
// ⟨S_p^r, T_p^r⟩ of the paper plus decision observation.
//
// The contract mirrors the communication-closed round structure:
//
//   - Send(r) is S_p^r applied to the current state. It must be free of
//     observable side effects (the paper notes that calling S_p^r never
//     changes s_p), because the implementation layer may skip invoking it
//     for rounds it jumps over.
//   - Transition(r, msgs) is T_p^r(μ⃗, s_p). msgs is the partial vector of
//     round-r messages received; its set of senders is HO(p, r). A nil or
//     empty slice models a round in which nothing was heard. The slice is
//     only valid for the duration of the call — the runner reuses its
//     backing array across rounds — so implementations must copy anything
//     they keep (payload values may be retained; they are immutable).
//   - Rounds are delivered in strictly increasing order, every round
//     exactly once (skipped rounds get an empty Transition call).
type Instance interface {
	// Send returns the round-r message (S_p^r).
	Send(r Round) Message
	// Transition applies T_p^r to the received partial vector.
	Transition(r Round, msgs []IncomingMessage)
	// Decided reports the instance's decision, if any.
	Decided() (Value, bool)
}

// Algorithm is a factory of per-process instances of an HO algorithm.
type Algorithm interface {
	// Name identifies the algorithm in traces and benchmarks.
	Name() string
	// NewInstance creates process p's instance in a system of n processes
	// with initial value initial.
	NewInstance(p ProcessID, n int, initial Value) Instance
}

// Snapshot is an opaque deep copy of an instance's state, used to model
// stable storage in the crash-recovery model. Implementations must
// guarantee that mutating the live instance after Snapshot does not affect
// the snapshot, and vice versa.
type Snapshot any

// Recoverable is implemented by instances whose state can be saved to and
// restored from stable storage (the s_p of Algorithms 2 and 3).
type Recoverable interface {
	// Snapshot returns a deep copy of the instance state.
	Snapshot() Snapshot
	// Restore replaces the instance state with a previously taken snapshot.
	Restore(s Snapshot)
}

// Persistent is implemented by instances whose state has a canonical byte
// encoding, which serves three readers: the live layer's WAL (the vote
// record saved before the next send), crash recovery (the image a restarted
// process resumes from) and the model checkers (their state fingerprint).
type Persistent interface {
	// AppendState appends the encoding of the whole instance state to
	// dst: instances that behave alike from here on encode alike.
	AppendState(dst []byte) []byte
	// RestoreState loads what stable storage keeps of an encoding: not
	// always all of it — an algorithm drops here what a crash must lose
	// (LastVoting's coordinator bookkeeping).
	RestoreState(b []byte) error
}

// Settling is an optional capability of an Instance for implementation
// layers that choose when a round's collection window closes (the live
// round driver): its one method answers, from a partial vector msgs of
// round-r messages, whether waiting for more is pointless. The contract:
//
//   - true only if Transition(r, m) leaves the instance in one and the
//     same state (AppendState reads alike) for msgs and for EVERY round-r
//     vector m that extends it — the answer may never depend on what is
//     yet to arrive;
//   - free of observable side effects, like Send: AppendState reads the
//     same before and after, and the call may be repeated or skipped.
//
// false is always a correct answer. Safety never rests on the method: a
// layer that closes a round on a true answer only hands Transition a
// smaller HO(p, r), which every HO algorithm tolerates by construction;
// a wrong true costs liveness alone, exactly as a short timeout would.
type Settling interface {
	SettledOn(r Round, msgs []IncomingMessage) bool
}
