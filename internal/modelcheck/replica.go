// Package modelcheck is exhaustive small-scope model checking of the LIVE
// replica protocol (live.ReplicaCore) — the layer ABOVE the consensus
// algorithms, which internal/hosweep checks in lock-step (OTR's and UV's
// verdicts are this package's tests). The model is the deployed step
// function itself: each replica is a live.ReplicaCore fed the events the
// production shell feeds it, so dissemination, forwarding and merged
// proposals, push/pull sync, apply-side session dedup and batch GC are
// checked as written, against one set of invariants (checkReplicaInvariants).
//
// Two engines walk the same state (rcState) with the same step:
//
//   - Walk (walk.go), the lock-step walk: rounds are communication-closed,
//     so each macro-step chooses what every replica hears from every
//     sender, then times out every round that did not close. It closes the
//     scopes that matter, and a communication predicate can restrict what
//     it lets a replica hear.
//   - Explore, the asynchronous message soup: every envelope joins a SET
//     of in-flight messages that any delivery may pick, any number of times
//     and in any order — duplication, reordering and loss for free — with
//     round timeouts, ticks, crash-stops and reboots as free events, in a
//     depth-first closure. It is the reference the walk is cross-checked
//     against, and it closes small scopes in seconds.
//
// A crash-stop freezes a replica for good; a reboot replaces it by
// ReplicaCore.Recover() — PersistState through RestoreReplicaCore, the
// production recovery path — or by the same through a disk that lies.
// MaxSlots and MaxRound (model bounds of ReplicaCore, zero in production)
// and a fixed workload keep the state space finite. The kill suite
// (kill.go) is the checker's own test: every seeded mutant is found by a
// walk of a small scope under a predicate, whose control closes clean — all
// but the one liveness bug, which a script finds (replicaprobe.go).
package modelcheck

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"heardof/internal/core"
	"heardof/internal/live"
	"heardof/internal/wal"
)

// ByteBatchCodec serializes model batches (one-byte commands).
type ByteBatchCodec struct{}

// AppendEntries implements live.BatchCodec.
func (ByteBatchCodec) AppendEntries(dst []byte, entries []live.Entry[byte]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, e.Client)
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = append(dst, e.Cmd)
	}
	return dst
}

// DecodeEntries implements live.BatchCodec.
func (ByteBatchCodec) DecodeEntries(src []byte) ([]live.Entry[byte], error) {
	count, n := binary.Uvarint(src)
	if n <= 0 || count > 1<<16 {
		return nil, errors.New("modelcheck: bad batch header")
	}
	src = src[n:]
	entries := make([]live.Entry[byte], 0, count)
	for i := uint64(0); i < count; i++ {
		client, n1 := binary.Uvarint(src)
		if n1 <= 0 {
			return nil, errors.New("modelcheck: bad batch entry")
		}
		seq, n2 := binary.Uvarint(src[n1:])
		if n2 <= 0 || len(src) < n1+n2+1 {
			return nil, errors.New("modelcheck: bad batch entry")
		}
		entries = append(entries, live.Entry[byte]{Client: client, Seq: seq, Cmd: src[n1+n2]})
		src = src[n1+n2+1:]
	}
	return entries, nil
}

// Submission is one workload command, submitted before exploration.
type Submission struct {
	Replica core.ProcessID
	Client  uint64
	Seq     uint64
	Cmd     byte
}

// ReplicaModel configures one exhaustive replica-protocol exploration.
type ReplicaModel struct {
	// N is the group size (≤ 3 stays tractable).
	N int
	// Slots bounds the slots replicas START consensus for.
	Slots uint64
	// MaxRound freezes each slot's round progression: the transition of
	// round MaxRound never fires. OTR can decide at the round-1
	// transition (MaxRound 2 suffices); LastVoting's adopters decide at
	// the ack round's transition, round 2 in phase 1 (MaxRound ≥ 3), and
	// whoever missed the vote at the decide round's (MaxRound ≥ 4).
	MaxRound core.Round
	// CrashBudget is the number of crash-STOP events the adversary may
	// spend (0 = none).
	CrashBudget int
	// RecoveryBudget is the number of reboots the adversary may spend (0 =
	// none): a replica restarts from its write-ahead state, losing round
	// position, pending submissions and peer bookkeeping.
	RecoveryBudget int
	// Algorithm and Msg pick the consensus layer (OTR or LastVoting with
	// their wire codecs).
	Algorithm core.Algorithm
	Msg       live.Codec
	// Mutation seeds a protocol bug (see live.Mutation); 0 checks the
	// real protocol.
	Mutation live.Mutation
	// Workload is submitted before exploration starts.
	Workload []Submission
	// MaxBatch caps entries per batch (0 = ReplicaCore's default). Set 1
	// to force one slot per submission — with a single proposer that
	// keeps every slot's proposals unanimous, which OTR at MaxRound 2
	// needs to decide at all.
	MaxBatch int
	// MaxStates bounds the exploration (default 2,000,000). Hitting it is
	// not an error: the result reports Complete=false, and every state
	// visited was checked.
	MaxStates int
	// disk, when set, edits the durable state a rebooting replica reads
	// back (mutForgetVote, mutForgetRound): a disk that lies. net, when
	// set, edits every envelope a replica sends (stripRiders): a network
	// that lies. hears, when set, restricts what the walk lets a replica
	// hear — a communication predicate: −1 never, +1 whenever it was sent
	// (with the rest of its group), 0 as the walk chooses. The kill walks
	// (kill.go) set them.
	disk  func(*wal.State)
	net   func(live.Envelope) live.Envelope
	hears func(to core.ProcessID, env live.Envelope) int
}

// ReplicaViolation is a reachable safety violation of the replica layer.
type ReplicaViolation struct {
	// Kind classifies the broken invariant: "agreement", "integrity",
	// "double-apply", "commit-regression", "gc-needed-batch",
	// "session-gap", "decided-unheld".
	Kind    string
	Message string
}

// ReplicaFinding is a non-safety observation — the dissemination-window
// stall: a decided batch id whose contents no live replica holds and no
// in-flight message carries, which only a network that strips batches
// (stripRiders) and then a crash of the proposer reach. Availability, not
// agreement, is what is lost.
type ReplicaFinding struct {
	Kind    string
	Message string
	// Count is how many distinct reachable states exhibit the finding.
	Count int
}

// ReplicaResult summarizes an exploration.
type ReplicaResult struct {
	States      int
	Transitions int64
	Violation   *ReplicaViolation
	Findings    []ReplicaFinding
	// MaxApplied is the deepest commit index any replica reached in any
	// explored state — a vacuity guard: a clean run with MaxApplied 0
	// never exercised decide/apply/GC and proves nothing about them.
	MaxApplied uint64
	// MaxMerged is the most commands any replica proposed on a peer's
	// behalf in any explored state — the same guard for the forward +
	// merge path: 0 means no proposal ever merged a forward or a peer's
	// batch into a new one.
	MaxMerged int
	// MaxOpen is the most slots any replica had in flight at once in any
	// explored state — the guard for the slot window: below 2, no two
	// consensus instances ever overlapped and nothing about overlapping
	// proposals, out-of-order decisions or per-slot votes was exercised.
	MaxOpen int
	// MaxJoined is the most slots any replica had joined beyond its own
	// window by any explored state — the guard for the join: 0 (any scope
	// with Slots ≤ the window) means no replica opened a slot on a peer's
	// round message from a window behind.
	MaxJoined int
	// Complete reports whether the reachable space was exhausted. False
	// means the MaxStates budget cut the run: every visited state was
	// still checked, so a clean incomplete run is a bounded-verification
	// result (depth-first order makes the budget cover deep schedules,
	// not just wide shallow ones, and Explore's successor order puts the
	// ones that decide and apply every slot first), but absence of
	// violations beyond the budget is not established.
	Complete bool
}

// rcState is one global model state: the replica cores (persistently
// shared between states — only a stepped core is cloned), the message
// soup, and the crash bookkeeping. coreFP caches each core's canonical
// encoding (recomputed only for a stepped core) and keys mirrors the
// soup as a sorted slice, so fingerprinting a successor is a hash over
// cached bytes rather than a re-encode — the difference between
// thousands and tens of thousands of states per second. sent lists the
// same keys in the order the messages were sent — the order Explore
// delivers them in; it is not part of the fingerprint. soup, keys and
// sent are shared between states until a step actually adds a message
// (owns tracks copy-on-write). fresh is Walk's: the keys of the envelopes
// sent in the last macro-step (Explore leaves it empty).
type rcState struct {
	cores      []*live.ReplicaCore[byte]
	coreFP     [][]byte
	soup       map[string]soupMsg
	keys       []string
	sent       []string
	fresh      []string
	owns       bool
	crashed    uint8
	crashes    int
	recoveries int
}

// soupMsg is one in-flight envelope with its destination. batchIDs is
// pre-parsed for the GC invariant: the batches whose contents it carries —
// a round message's rider, a decision push's batches.
type soupMsg struct {
	to       core.ProcessID
	env      live.Envelope
	batchIDs []int64
}

// soupKey canonically encodes a (destination, envelope) pair.
func soupKey(to core.ProcessID, env live.Envelope) string {
	b := make([]byte, 0, 16+len(env.Payload))
	b = binary.AppendUvarint(b, uint64(to))
	b = append(b, byte(env.Kind))
	b = binary.AppendUvarint(b, uint64(env.From))
	b = binary.AppendUvarint(b, env.Slot)
	b = binary.AppendUvarint(b, uint64(env.Round))
	b = append(b, env.Payload...)
	return string(b)
}

// live reports whether process p has not crash-stopped.
func (s *rcState) live(p core.ProcessID) bool { return s.crashed&(1<<uint(p)) == 0 }

// fingerprint hashes the canonical global state (cached core encodings
// + sorted soup keys + crash bookkeeping).
func (s *rcState) fingerprint() uint64 {
	h := fnv.New64a()
	for _, fp := range s.coreFP {
		h.Write(fp)
		h.Write([]byte{0xFF})
	}
	for _, k := range s.keys {
		h.Write([]byte(k))
		h.Write([]byte{0xFE})
	}
	h.Write([]byte{s.crashed, byte(s.crashes), byte(s.recoveries)})
	return h.Sum64()
}

// absorb folds a step's outbound envelopes into the soup.
func (s *rcState) absorb(n int, self core.ProcessID, out []live.Outbound) {
	for _, o := range out {
		each(n, self, o, func(to core.ProcessID) { s.put(to, o.Env) })
	}
}

// each calls f for every destination of an envelope p sends: a broadcast
// reaches every other replica, and nothing is sent to self (the core
// self-delivers).
func each(n int, p core.ProcessID, o live.Outbound, f func(core.ProcessID)) {
	for q := 0; q < n; q++ {
		if to := core.ProcessID(q); to != p && (o.To == live.AllPeers || o.To == to) {
			f(to)
		}
	}
}

// put inserts one envelope, pre-parsing batch ids for the GC check.
// The soup is copy-on-write: the first genuinely new message in a
// forked state duplicates the map and key slice.
func (s *rcState) put(to core.ProcessID, env live.Envelope) {
	key := soupKey(to, env)
	if _, ok := s.soup[key]; ok {
		return
	}
	if !s.owns {
		cp := make(map[string]soupMsg, len(s.soup)+4)
		//holint:allow nodeterminism map-to-map copy; insertion order cannot affect the result
		for k, v := range s.soup {
			cp[k] = v
		}
		s.soup = cp
		s.keys = append(make([]string, 0, len(s.keys)+4), s.keys...)
		s.sent = append(make([]string, 0, len(s.sent)+4), s.sent...)
		s.owns = true
	}
	s.soup[key] = soupMsg{to: to, env: env, batchIDs: carried(env)}
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	s.sent = append(s.sent, key)
}

// carried returns the ids of the batches whose contents env carries: the
// rider of a round message, or every batch of a decision push (a pair
// stripRiders emptied carries its id alone, and no contents).
func carried(env live.Envelope) []int64 {
	var ids []int64
	switch env.Kind {
	case live.KindRound:
		if _, rider, ok := live.SplitRound(env.Payload); ok {
			if v, n := binary.Varint(rider); n > 0 {
				ids = append(ids, v)
			}
		}
	case live.KindSync:
		live.SyncPairs(env.Payload, func(_ uint64, bid int64, pair []byte) bool {
			if _, n := binary.Varint(pair); n < len(pair) {
				ids = append(ids, bid)
			}
			return true
		})
	}
	return ids
}

// with returns a copy of the state whose core p is c; the rest (including
// the soup, copy-on-write) stay shared.
func (s *rcState) with(p core.ProcessID, c *live.ReplicaCore[byte]) *rcState {
	next := &rcState{
		cores:      append([]*live.ReplicaCore[byte](nil), s.cores...),
		coreFP:     append([][]byte(nil), s.coreFP...),
		soup:       s.soup,
		keys:       s.keys,
		sent:       s.sent,
		crashed:    s.crashed,
		crashes:    s.crashes,
		recoveries: s.recoveries,
	}
	next.cores[p] = c
	next.coreFP[p] = c.AppendFingerprint(nil)
	return next
}

// NewReplicaModel validates the configuration.
func NewReplicaModel(m ReplicaModel) (*ReplicaModel, error) {
	if m.N < 1 || m.N > 3 {
		return nil, fmt.Errorf("modelcheck: replica model supports 1..3 replicas, got %d", m.N)
	}
	if m.Slots < 1 || m.MaxRound < 1 {
		return nil, errors.New("modelcheck: Slots and MaxRound must be ≥ 1")
	}
	if m.Algorithm == nil || m.Msg == nil {
		return nil, errors.New("modelcheck: nil algorithm or codec")
	}
	if m.MaxStates <= 0 {
		m.MaxStates = 2_000_000
	}
	// The session-gap invariant reads "fresh applies == Σ high-water
	// marks", which presumes each client's sequence numbers are exactly
	// 1..k (the same number submitted twice is a retry and fine).
	seqs := map[uint64]map[uint64]bool{}
	for _, sub := range m.Workload {
		if seqs[sub.Client] == nil {
			seqs[sub.Client] = map[uint64]bool{}
		}
		seqs[sub.Client][sub.Seq] = true
	}
	//holint:allow nodeterminism validation only; any offending client is an error
	for client, set := range seqs {
		for s := uint64(1); s <= uint64(len(set)); s++ {
			if !set[s] {
				return nil, fmt.Errorf("modelcheck: client %d's workload sequence numbers are not contiguous from 1", client)
			}
		}
	}
	return &m, nil
}

// coreConfig is replica p's configuration.
func (m *ReplicaModel) coreConfig(p core.ProcessID) live.CoreConfig[byte] {
	return live.CoreConfig[byte]{
		Self:      p,
		N:         m.N,
		Algorithm: m.Algorithm,
		Msg:       m.Msg,
		Batch:     ByteBatchCodec{},
		Mutation:  m.Mutation,
		MaxBatch:  m.MaxBatch,
		MaxRound:  m.MaxRound,
		MaxSlots:  m.Slots,
	}
}

// reboot is a crash-RECOVERY of core p: the production restore path over
// the core's write-ahead state, read back through disk if one is set.
func (m *ReplicaModel) reboot(c *live.ReplicaCore[byte], p core.ProcessID) *live.ReplicaCore[byte] {
	if m.disk == nil {
		return c.Recover()
	}
	st := c.PersistState()
	m.disk(st)
	d, err := live.RestoreReplicaCore(m.coreConfig(p), st)
	if err != nil {
		panic(fmt.Sprintf("modelcheck: recovery of p%d failed: %v", p, err))
	}
	return d
}

// initialState builds the cores and submits the workload.
func (m *ReplicaModel) initialState() (*rcState, error) {
	st := &rcState{soup: make(map[string]soupMsg), owns: true}
	for p := 0; p < m.N; p++ {
		c, err := live.NewReplicaCore(m.coreConfig(core.ProcessID(p)))
		if err != nil {
			return nil, err
		}
		st.cores = append(st.cores, c)
	}
	for _, sub := range m.Workload {
		if int(sub.Replica) >= m.N {
			return nil, fmt.Errorf("modelcheck: workload replica %d out of range", sub.Replica)
		}
		c := st.cores[sub.Replica]
		res := c.Step(live.Event[byte]{Kind: live.EvSubmit, Client: sub.Client, Seq: sub.Seq, Cmd: sub.Cmd})
		m.lie(res.Out)
		st.absorb(m.N, sub.Replica, res.Out)
	}
	for _, c := range st.cores {
		st.coreFP = append(st.coreFP, c.AppendFingerprint(nil))
	}
	return st, nil
}

// Explore runs the depth-first closure and checks every transition.
func (m *ReplicaModel) Explore() (ReplicaResult, error) { return m.explore(nil) }

// explore is Explore with a hook on every new state.
func (m *ReplicaModel) explore(hook func(*rcState)) (ReplicaResult, error) {
	var res ReplicaResult
	start, err := m.initialState()
	if err != nil {
		return res, err
	}

	findings := map[string]*ReplicaFinding{}
	seen := map[uint64]bool{start.fingerprint(): true}
	var frontier []*rcState

	// Coverability pruning. The soup is monotone, so a state whose soup
	// is a superset of an already-enqueued state with the SAME cores and
	// crash bookkeeping simulates it: the extra messages only add
	// enabled deliveries, and every safety invariant here is monotone in
	// the soup (none reads a message's absence — gc-needed-batch does,
	// but in a monotone soup a sent batch — the rider of a round message,
	// or a decision push's — stays in flight forever,
	// so at crashes=0 it is unreachable regardless, and with crashes it
	// is the stall finding, whose discovery the lock-step walk owns).
	// Any violation reachable from the subset state is therefore
	// reachable from the superset state via the mirrored schedule.
	// Exploring only soup-maximal states per core configuration
	// collapses the dominant source of state variety — interleavings
	// that differ only in which sends have happened yet.
	msgBit := map[string]uint{}
	soupBits := func(keys []string) []uint64 {
		var bs []uint64
		for _, k := range keys {
			b, ok := msgBit[k]
			if !ok {
				b = uint(len(msgBit))
				msgBit[k] = b
			}
			for uint(len(bs)) <= b/64 {
				bs = append(bs, 0)
			}
			bs[b/64] |= 1 << (b % 64)
		}
		return bs
	}
	subset := func(a, b []uint64) bool {
		if len(a) > len(b) {
			return false
		}
		for i, w := range a {
			if w&^b[i] != 0 {
				return false
			}
		}
		return true
	}
	covered := map[string][][]uint64{}
	coreKey := func(st *rcState) string {
		n := 3
		for _, fp := range st.coreFP {
			n += len(fp) + 1
		}
		b := make([]byte, 0, n)
		for _, fp := range st.coreFP {
			b = append(b, fp...)
			b = append(b, 0xFF)
		}
		b = append(b, st.crashed, byte(st.crashes), byte(st.recoveries))
		return string(b)
	}
	enqueue := func(st *rcState) {
		ck := coreKey(st)
		bs := soupBits(st.keys)
		for _, old := range covered[ck] {
			if subset(bs, old) {
				return
			}
		}
		covered[ck] = append(covered[ck], bs)
		frontier = append(frontier, st)
	}
	enqueue(start)
	if hook != nil {
		hook(start)
	}
	if v := m.check(start, findings); v != nil {
		res.Violation = v
		res.States = 1
		return res, nil
	}

	// halt stops the exploration: a violation was found, or the state
	// budget was hit (in which case the run is reported incomplete).
	halt := false
	res.Complete = true

	// visit runs the shared bookkeeping for one successor state.
	visit := func(next *rcState, v *ReplicaViolation) {
		res.Transitions++
		if v == nil {
			v = m.check(next, findings)
		}
		if v != nil {
			res.Violation = v
			res.Complete = false
			halt = true
			return
		}
		res.observe(next.cores)
		f := next.fingerprint()
		if !seen[f] {
			if len(seen) >= m.MaxStates {
				res.Complete = false
				halt = true
				return
			}
			seen[f] = true
			if hook != nil {
				hook(next)
			}
			enqueue(next)
		}
	}

	for len(frontier) > 0 && !halt {
		st := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		// The walk pops what is pushed last, so the push order decides
		// which schedules a bounded run spends its budget on — and, through
		// coverability pruning, what a full closure costs; it cannot change
		// what a closure proves. Crashes are pushed first and explored
		// last: a crash only takes behaviour away. Deliveries come back
		// oldest message first, the order a FIFO network would produce — a
		// batch before the round message that names it, a forward after
		// both — so the first deep schedules are the ones that decide and
		// apply every slot, and the reorderings, losses (a message never
		// delivered) and crashes are explored around them. Timeouts and
		// ticks go on top: they make a replica say everything it has to
		// say, and soup-maximal states first is what lets the pruning cut.
		for p := 0; p < m.N && !halt; p++ {
			pid := core.ProcessID(p)
			if !st.live(pid) {
				continue
			}
			// Crash-stop, within budget.
			if st.crashes < m.CrashBudget {
				next := &rcState{cores: st.cores, coreFP: st.coreFP, soup: st.soup, keys: st.keys, sent: st.sent,
					crashed: st.crashed | 1<<uint(p), crashes: st.crashes + 1, recoveries: st.recoveries}
				visit(next, nil)
			}
			// Crash-RECOVERY, within budget: the replica reboots from its
			// write-ahead state via the production recovery path. Soup
			// messages sent to it before the crash stay deliverable —
			// exactly the duplicate-delivery-after-restart hazard the
			// invariants must survive.
			if !halt && st.recoveries < m.RecoveryBudget {
				next := st.with(pid, m.reboot(st.cores[p], pid))
				next.recoveries++
				visit(next, nil)
			}
		}

		// Deliveries: any soup message to any live destination.
		for i := len(st.sent) - 1; i >= 0 && !halt; i-- {
			msg := st.soup[st.sent[i]]
			if !st.live(msg.to) {
				continue
			}
			next, v := m.step(st, msg.to, live.Event[byte]{Kind: live.EvEnvelope, Env: msg.env})
			visit(next, v)
		}

		for p := 0; p < m.N && !halt; p++ {
			pid := core.ProcessID(p)
			if !st.live(pid) {
				continue
			}
			// A round timeout for every open slot (skipped at the MaxRound
			// bound, where closing is a no-op by construction): the shell
			// keeps one deadline per slot, so any of them may fire first.
			open := st.cores[p].OpenRounds(nil)
			for _, sr := range open {
				if sr.Round < m.MaxRound && !halt {
					next, v := m.step(st, pid, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot})
					visit(next, v)
				}
			}
			// The anti-entropy tick whenever it does something: while idle.
			if !halt && len(open) == 0 {
				next, v := m.step(st, pid, live.Event[byte]{Kind: live.EvTick})
				visit(next, v)
			}
		}
	}

	res.States = len(seen)
	res.Findings = sortedFindings(findings)
	return res, nil
}

// observe raises the vacuity guards to what cores reached.
func (res *ReplicaResult) observe(cores []*live.ReplicaCore[byte]) {
	for _, c := range cores {
		if l, _ := c.LogFingerprint(); l > res.MaxApplied {
			res.MaxApplied = l
		}
		st := c.Counters()
		res.MaxMerged = max(res.MaxMerged, st.Merged)
		res.MaxOpen = max(res.MaxOpen, st.Open)
		res.MaxJoined = max(res.MaxJoined, st.Joined)
	}
}

// sortedFindings flattens a findings map in deterministic (key) order —
// ranging the map directly would make the report order depend on map
// iteration, the exact bug class the determinism contract bans.
func sortedFindings(findings map[string]*ReplicaFinding) []ReplicaFinding {
	keys := make([]string, 0, len(findings))
	for k := range findings { //holint:allow nodeterminism key collection is sorted on the next line
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ReplicaFinding, 0, len(keys))
	for _, k := range keys {
		out = append(out, *findings[k])
	}
	return out
}

// step forks the state, applies one event to one core (stepCore), and
// adds what it sends to the soup.
func (m *ReplicaModel) step(st *rcState, p core.ProcessID, ev live.Event[byte]) (*rcState, *ReplicaViolation) {
	c, out, v := m.stepCore(st.cores[p], p, ev)
	next := st.with(p, c)
	next.absorb(m.N, p, out)
	return next, v
}

// lie passes a step's envelopes through net, if one is set.
func (m *ReplicaModel) lie(out []live.Outbound) {
	for i := 0; m.net != nil && i < len(out); i++ {
		out[i].Env = m.net(out[i].Env)
	}
}

// stepCore applies one event to a clone of core p, passes what it sends
// through net, and runs the transition-local checks (apply dedup,
// commit-index monotonicity).
func (m *ReplicaModel) stepCore(pre *live.ReplicaCore[byte], p core.ProcessID, ev live.Event[byte]) (*live.ReplicaCore[byte], []live.Outbound, *ReplicaViolation) {
	preLen, _ := pre.LogFingerprint()
	next := pre.Clone()
	res := next.Step(ev)
	m.lie(res.Out)

	// Double-apply: a Fresh entry must be fresh against the PRE-step
	// high-water mark, and no (client, seq) may apply fresh twice in one
	// step. Together with hwm monotonicity this makes fresh-exactly-once
	// an invariant over whole executions, not just single steps.
	freshSeen := map[[2]uint64]bool{}
	for _, ae := range res.Applied {
		if !ae.Fresh {
			continue
		}
		key := [2]uint64{ae.Entry.Client, ae.Entry.Seq}
		if pre.SeqApplied(ae.Entry.Client, ae.Entry.Seq) || freshSeen[key] {
			return next, res.Out, &ReplicaViolation{Kind: "double-apply", Message: fmt.Sprintf(
				"replica %d applied client %d seq %d fresh twice", p, ae.Entry.Client, ae.Entry.Seq)}
		}
		freshSeen[key] = true
	}
	if postLen, _ := next.LogFingerprint(); postLen < preLen {
		return next, res.Out, &ReplicaViolation{Kind: "commit-regression", Message: fmt.Sprintf(
			"replica %d commit index regressed %d → %d", p, preLen, postLen)}
	}
	return next, res.Out, nil
}

// check evaluates the global safety invariants on one state, recording
// availability findings (which are not violations) on the side.
func (m *ReplicaModel) check(st *rcState, findings map[string]*ReplicaFinding) *ReplicaViolation {
	return checkReplicaInvariants(m.N, st.cores, st.live, func(bid int64) bool {
		//holint:allow nodeterminism existential scan; the boolean result is order-insensitive
		for _, msg := range st.soup {
			if st.live(msg.to) && slices.Contains(msg.batchIDs, bid) {
				return true
			}
		}
		return false
	}, st.crashes, findings)
}

// checkReplicaInvariants evaluates the replica-layer safety invariants
// on one global state — shared by both engines and the scripted
// probe. isLive reports non-crashed processes, batchInFlight
// whether some in-flight message still carries a batch's contents to a
// live destination, and crashes how many crash-stops the execution has
// spent (they reclassify unavailable decided contents from a GC safety
// bug to the documented stall finding).
func checkReplicaInvariants(n int, cores []*live.ReplicaCore[byte], isLive func(core.ProcessID) bool,
	batchInFlight func(int64) bool, crashes int, findings map[string]*ReplicaFinding) *ReplicaViolation {
	// Divergence counters: the cores detect conflicting decision
	// observations themselves; any nonzero count is a split decision.
	for p, c := range cores {
		if d := c.Counters().Divergent; d != 0 {
			return &ReplicaViolation{Kind: "agreement", Message: fmt.Sprintf(
				"replica %d observed %d divergent decisions", p, d)}
		}
	}

	// Agreement + integrity across every decision observation (applied
	// logs and decided-but-unapplied maps).
	decisions := map[uint64]int64{}
	var maxSlot uint64
	record := func(p int, slot uint64, bid int64) *ReplicaViolation {
		if prev, ok := decisions[slot]; ok && prev != bid {
			return &ReplicaViolation{Kind: "agreement", Message: fmt.Sprintf(
				"slot %d decided as both %d and %d (replica %d)", slot, prev, bid, p)}
		}
		decisions[slot] = bid
		if slot > maxSlot {
			maxSlot = slot
		}
		if bid != 0 {
			proposer := bid>>40 - 1
			if proposer < 0 || proposer >= int64(n) ||
				bid&(1<<40-1) < 1 || bid&(1<<40-1) > cores[proposer].BatchesCreated() {
				return &ReplicaViolation{Kind: "integrity", Message: fmt.Sprintf(
					"slot %d decided batch id %d that no replica proposed", slot, bid)}
			}
		}
		return nil
	}
	for p, c := range cores {
		logLen, _ := c.LogFingerprint()
		for s := uint64(1); s <= logLen; s++ {
			bid, _ := c.LogAt(s)
			if v := record(p, s, bid); v != nil {
				return v
			}
		}
		// Walk the decided-unapplied slots in sorted order: WHICH
		// conflicting pair a violation reports must not depend on map
		// iteration, or the checker's counterexamples vary run to run.
		decided := c.DecidedUnapplied()
		slots := make([]uint64, 0, len(decided))
		for s := range decided { //holint:allow nodeterminism key collection is sorted on the next line
			slots = append(slots, s)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, s := range slots {
			if v := record(p, s, decided[s]); v != nil {
				return v
			}
		}
	}

	// Session order: no apply may jump over an unapplied sequence number
	// of its client (the jumped-over command could then never apply — the
	// high-water mark dedups it). With each client's sequence numbers
	// contiguous from 1 (NewReplicaModel checks the workload; the script's
	// is), every fresh apply raises one mark by exactly one, so the marks
	// must add up to the fresh-apply count.
	for p, c := range cores {
		if sum, fresh := c.AppliedSeqSum(), uint64(c.Counters().Committed); sum != fresh {
			return &ReplicaViolation{Kind: "session-gap", Message: fmt.Sprintf(
				"replica %d applied %d commands fresh but its session high-water marks add up to %d: an apply skipped a sequence number",
				p, fresh, sum)}
		}
	}

	// GC safety / availability: a decided batch some live replica has
	// yet to apply must be obtainable — held by a live replica or in
	// flight. Unreachable contents without any crash is a GC bug
	// (safety); with a crash spent it is the documented dissemination-
	// window stall (availability finding, not a violation).
	for slot := uint64(1); slot <= maxSlot; slot++ {
		bid, ok := decisions[slot]
		if !ok || bid == 0 {
			continue
		}
		needed := false
		for p, c := range cores {
			if logLen, _ := c.LogFingerprint(); isLive(core.ProcessID(p)) && logLen < slot {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		available := false
		for p, c := range cores {
			if isLive(core.ProcessID(p)) && c.HoldsBatch(bid) {
				available = true
				break
			}
		}
		if !available && batchInFlight(bid) {
			available = true
		}
		if !available {
			if crashes == 0 {
				return &ReplicaViolation{Kind: "gc-needed-batch", Message: fmt.Sprintf(
					"slot %d batch %d needed by a live replica but held nowhere", slot, bid)}
			}
			f := findings["stall-window"]
			if f == nil {
				f = &ReplicaFinding{Kind: "stall-window", Message: fmt.Sprintf(
					"dissemination-window stall: slot %d batch %d decided, contents lost with its crashed proposer", slot, bid)}
				findings["stall-window"] = f
			}
			f.Count++
		}
	}

	// Decided ⇒ held: a live replica holds the batch of every slot it
	// knows decided until it has applied it. Every round message that
	// names a batch carries it (live's appendRound), so adopting a vote and
	// holding what it votes for are one step; a decision push carries the
	// batches of the slots it names, kept before the decision is; and a
	// recovered decision was saved after its batch. The decision's contents
	// never hang on a separate message. Only a network that strips batches
	// (stripRiders) breaks it — with a crash, that is the stall above.
	for p, c := range cores {
		if !isLive(core.ProcessID(p)) {
			continue
		}
		decided := c.DecidedUnapplied()
		slots := make([]uint64, 0, len(decided))
		for s := range decided { //holint:allow nodeterminism key collection is sorted on the next line
			slots = append(slots, s)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, s := range slots {
			if bid := decided[s]; bid != 0 && !c.HoldsBatch(bid) {
				return &ReplicaViolation{Kind: "decided-unheld", Message: fmt.Sprintf(
					"replica %d knows slot %d decided as batch %d without holding it", p, s, bid)}
			}
		}
	}
	return nil
}
