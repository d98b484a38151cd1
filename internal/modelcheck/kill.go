// The kill suite: every seeded bug and the run that must kill it. A kill
// walk is a scope, a communication predicate (the scope's hears) and a
// mutant; its control is a clean full closure of the same scope and
// predicate. The predicate is how the paper states a fault — a
// restriction of the heard-of sets — and a probe is one such restriction:
// the walk enumerates every schedule it admits. The one mutant no walk
// reaches, a liveness bug, is a script (replicaprobe.go).
package modelcheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/wal"
)

// probeResult is the outcome of one probe: a kill walk or a script.
type probeResult struct {
	// Violation is a safety violation the invariant engine found.
	Violation *ReplicaViolation
	// Findings are non-safety observations: the stall, the livelock, a walk
	// that did not close or exercised too little.
	Findings []ReplicaFinding
	// States is how many states a kill walk visited (0 for a script).
	States int
}

// flagged reports whether the probe surfaced anything.
func (r probeResult) flagged() bool { return r.Violation != nil || len(r.Findings) > 0 }

// has reports whether the probe found a finding of the kind.
func (r probeResult) has(kind string) bool {
	return slices.ContainsFunc(r.Findings, func(f ReplicaFinding) bool { return f.Kind == kind })
}

// mutant pairs a seeded bug with the run that must kill it.
type mutant struct {
	name string
	// desc is what the mutant reintroduces, for the report.
	desc string
	// run executes the probe; enabled seeds the bug.
	run func(enabled bool) probeResult
	// killed reports whether the mutated run was flagged the right way.
	killed func(probeResult) bool
}

func violates(kind string) func(probeResult) bool {
	return func(r probeResult) bool { return r.Violation != nil && r.Violation.Kind == kind }
}

func mutation(mut live.Mutation) func(*ReplicaModel) {
	return func(m *ReplicaModel) { m.Mutation = mut }
}

// mutants is the kill suite, in the order it runs.
var mutants = []mutant{
	{"locked-vote", "walk: fresh-instance slot retry discarding LastVoting's locked vote (split decision)",
		walked(lockedVoteScope(), 1, 1, mutation(live.MutFreshRetry)), violates("agreement")},
	{"drift-livelock", "jump rule removed: lockstep survivors drift one round apart forever",
		checkDrift, func(r probeResult) bool { return r.Violation == nil && r.has("drift-livelock") }},
	{"stall-window", "walk: round messages and decision pushes stripped of their batches, then a proposer crash, strand a decided batch",
		walked(stallScope(), 1, 1, func(m *ReplicaModel) { m.net = stripRiders }),
		func(r probeResult) bool { return violates("decided-unheld")(r) && r.has("stall-window") }},
	{"forget-vote", "walk: crash recovery discarding the persisted locked vote (split decision)",
		walked(rebootScope(), 1, 1, func(m *ReplicaModel) { m.disk = mutForgetVote }), violates("agreement")},
	{"forget-round", "walk: crash recovery discarding the round saved with the vote: the slot re-run among its old round messages (split decision)",
		walked(rebootScope(), 1, 1, func(m *ReplicaModel) { m.disk = mutForgetRound }), violates("agreement")},
	{"merge-skip", "walk: proposal merge dropping a source's first unapplied command (lost command)",
		walked(forwardScope(), 1, 1, mutation(live.MutMergeSkip)), violates("session-gap")},
	{"window-disjoint", "walk: open slots proposing disjoint chunks instead of overlapping batches (lost command)",
		walked(windowScope(), 2, 2, mutation(live.MutWindowDisjoint)), violates("session-gap")},
	{"prune-open", "walk: pruning a fully applied proposal whose slot is still open (a later phase decides an id nobody holds)",
		walked(pruneOpenScope(), 2, 2, mutation(live.MutPruneOpen)), violates("decided-unheld")},
}

// Mutants lists the kill suite's mutants by name, in the order it runs.
func Mutants() []string {
	var names []string
	for _, k := range mutants {
		names = append(names, k.name)
	}
	return names
}

// Kill runs the named mutant's seeded run and its control and says in one
// line how it went. It reports true only when the seeded run is flagged
// the mutant's way AND the control is clean: a probe that fails its
// control proves nothing.
func Kill(name string) (string, bool) {
	i := slices.IndexFunc(mutants, func(k mutant) bool { return k.name == name })
	if i < 0 {
		return fmt.Sprintf("unknown mutant %q", name), false
	}
	k := mutants[i]
	mutated := k.run(true)
	if !k.killed(mutated) {
		return fmt.Sprintf("SURVIVED: checker did not flag it (%s)", k.desc), false
	}
	control := k.run(false)
	if control.flagged() {
		return fmt.Sprintf("INVALID: control run flagged too (violation=%v findings=%v)", control.Violation, control.Findings), false
	}
	verdict, clean := "finding", "control clean"
	if mutated.Violation != nil {
		verdict = fmt.Sprintf("violation [%s]", mutated.Violation.Kind)
	}
	if control.States > 0 {
		verdict += fmt.Sprintf(" at %d states", mutated.States)
		clean += fmt.Sprintf(", %d states", control.States)
	}
	return fmt.Sprintf("killed (%s; %s) — %s", verdict, clean, k.desc), true
}

// mutForgetVote is the disk that loses every persisted vote: the rebooted
// replica reopens its slot lockless.
func mutForgetVote(st *wal.State) { st.Votes = nil }

// mutForgetRound is the disk that keeps each vote and loses the round
// saved with it (the record's leading uvarint reads 0): the slot reopens
// at round 1, among the old round messages still in the network.
func mutForgetRound(st *wal.State) {
	//holint:allow nodeterminism each record is rewritten independently of the others
	for slot, vote := range st.Votes {
		if _, n := binary.Uvarint(vote); n > 0 {
			st.Votes[slot] = append([]byte{0}, vote[n:]...)
		}
	}
}

// stripRiders is the network that delivers a round message without the
// batch riding it, and a decision push with each slot's batch id and no
// contents. No link can, so the checker builds it outside the core: it is
// how the dissemination-window stall is still reached.
func stripRiders(env live.Envelope) live.Envelope {
	switch env.Kind {
	case live.KindRound:
		if _, rider, ok := live.SplitRound(env.Payload); ok && len(rider) > 0 {
			env.Payload = env.Payload[:len(env.Payload)-len(rider)]
		}
	case live.KindSync:
		var pairs []byte
		count := uint64(0)
		live.SyncPairs(env.Payload, func(slot uint64, bid int64, _ []byte) bool {
			id := binary.AppendVarint(nil, bid)
			pairs = append(binary.AppendUvarint(binary.AppendUvarint(pairs, slot), uint64(len(id))), id...)
			count++
			return true
		})
		env.Payload = append(binary.AppendUvarint(nil, count), pairs...)
	}
	return env
}

// The kill scopes: LastVoting at n=3, each the smallest scope and the
// weakest predicate at which the walk finds its mutant (DESIGN.md §10).
// Under a reboot at round bound 7 for the lying disks; under a crash-stop
// at bound 4 for the stripping network, and the latter with p1 forwarding a
// second command of its session for MutMergeSkip.
func rebootScope() ReplicaModel  { return lastVotingScope(1, 7, 0, 1, 0, 1) }
func stallScope() ReplicaModel   { return lastVotingScope(1, 4, 1, 0, 0, 1) }
func forwardScope() ReplicaModel { return lastVotingScope(1, 4, 1, 0, 1, 2) }

// lockedVoteScope runs one slot past MutFreshRetry's retry round with two
// proposers, p0 (`a`) and p2 (`c`), under the predicate that makes p1 a
// lone decider: nobody hears p1, and p1 hears p0's round-1 message — phase
// 1's vote, which with its own ack decides the slot at p1 — and nothing
// else. p0, born locked to its proposal, and p2 must then decide the same
// batch without p1.
func lockedVoteScope() ReplicaModel {
	m := lastVotingScope(1, 13, 0, 0, 0, 1)
	m.Workload = append(m.Workload, Submission{Replica: 2, Client: 3, Seq: 1, Cmd: 'c'})
	m.hears = func(to core.ProcessID, env live.Envelope) int {
		switch {
		case env.From == 1:
			return -1
		case to != 1:
			return 0
		case env.From == 0 && env.Kind == live.KindRound && env.Round == 1:
			return 1
		}
		return -1
	}
	return m
}

// windowScope runs two slots in flight through two phases, `a` and `b` of
// one session at p0, under the predicate that cuts slot 1 off at p0 — no
// round message of slot 1 from or to p0 is heard — and hears every round
// message of slot 2. Slot 2's vote asks the other two into slot 1 with
// p0's slot-2 proposal riding it, so slot 1 can decide that proposal
// without p0 — and it must carry `a` too.
func windowScope() ReplicaModel {
	m := lastVotingScope(2, 8, 0, 0, 0, 2)
	m.hears = func(to core.ProcessID, env live.Envelope) int {
		switch {
		case env.Kind != live.KindRound:
			return 0
		case env.Slot == 2:
			return 1
		case env.From == 0 || to == 0:
			return -1
		}
		return 0
	}
	return m
}

// pruneOpenScope runs two slots through two phases, two commands to a
// batch. p1 opens slot 1 with A = [a] and slot 2 with B = [a b], and with
// its window full forwards [a b] ahead of c; p2 opens both slots for x and
// y of its own session. The predicate: p0 hears p1's forward and nothing
// else, and its round messages of slot 1 are always heard. So p0 opens
// slot 1 alone, mints P = [a b] from the forward and, as Coord(1), votes
// it: slot 1 decides P, and B's entries have all applied through another
// batch while slot 2 — which p1 and p2 run without p0 — is still open with
// p1's estimate B. p1 coordinates phase 2 and votes B, so whoever let go
// of B then decides an id it does not hold.
func pruneOpenScope() ReplicaModel {
	m := lastVotingScope(2, 7, 0, 0, 1, 3)
	m.MaxBatch = 2
	m.Workload = append(m.Workload,
		Submission{Replica: 2, Client: 2, Seq: 1, Cmd: 'x'}, Submission{Replica: 2, Client: 2, Seq: 2, Cmd: 'y'})
	m.hears = func(to core.ProcessID, env live.Envelope) int {
		switch {
		case to == 0 && env.Kind == live.KindForward:
			return 1
		case to == 0:
			return -1
		case env.From == 0 && env.Kind == live.KindRound && env.Slot == 1:
			return 1
		}
		return 0
	}
	return m
}

// lastVotingScope is LastVoting at n=3 with cmds commands of one session
// submitted at replica at.
func lastVotingScope(slots uint64, maxRound core.Round, crashes, reboots int, at core.ProcessID, cmds uint64) ReplicaModel {
	m := ReplicaModel{N: 3, Slots: slots, MaxRound: maxRound, CrashBudget: crashes, RecoveryBudget: reboots,
		Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}}
	for seq := uint64(1); seq <= cmds; seq++ {
		m.Workload = append(m.Workload, Submission{Replica: at, Client: 1, Seq: seq, Cmd: byte('a' + seq - 1)})
	}
	return m
}

// walked is the kill walk of m with seed's bug planted when enabled. A run
// that did not close reports a "budget" finding, and a closure below the
// vacuity guards — applied slots at some replica, open slots in flight at
// once — a "vacuous" one, so a control is clean only as a full closure
// that exercised what the mutant breaks.
func walked(m ReplicaModel, applied uint64, open int, seed func(*ReplicaModel)) func(bool) probeResult {
	return func(enabled bool) probeResult {
		m := m
		if enabled {
			seed(&m)
		}
		model, err := NewReplicaModel(m)
		var res ReplicaResult
		if err == nil {
			res, err = model.Walk()
		}
		if err != nil {
			panic(fmt.Sprintf("modelcheck: kill scope: %v", err))
		}
		switch {
		case res.Violation != nil:
		case !res.Complete:
			res.Findings = append(res.Findings, ReplicaFinding{Kind: "budget", Message: "the walk did not close", Count: res.States})
		case res.MaxApplied < applied || res.MaxOpen < open:
			res.Findings = append(res.Findings, ReplicaFinding{Kind: "vacuous", Message: fmt.Sprintf(
				"most applied %d, most open %d: want %d and %d", res.MaxApplied, res.MaxOpen, applied, open), Count: res.States})
		}
		return probeResult{Violation: res.Violation, Findings: res.Findings, States: res.States}
	}
}
