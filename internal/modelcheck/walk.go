// The lock-step walk. One macro-step: every up replica hears, from each
// sender, its round messages of the previous macro-step whole or not at
// all and the rest of what it sent (decision pushes, pulls, forwards) whole
// or not at all — HO(p) — in a canonical order, rounds first; then every
// slot it had open whose round did not close times out, and an idle
// replica ticks. Round messages stay addressable by (slot, round): a
// replica in round r of a slot also hears, if chosen, any round-r message
// of the slot sent to it earlier, so one that re-enters a round (a reboot
// from a disk that lost the round) meets what the network still holds of
// it. A crash-stop or a reboot falls between a replica's save and its
// send: the step happened, what it sent is lost. A communication predicate
// (ReplicaModel's hears) restricts HO(p): a message it rules out is never
// heard, and a group holding a message it forces is always heard.
package modelcheck

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"

	"heardof/internal/core"
	"heardof/internal/live"
)

// How a replica's macro-step ends, if not up.
const (
	endCrash = iota + 1
	endReboot
)

// outcome is one replica's macro-step: its core, the keys of what it sent
// (sorted; broadcasts expanded) and how it ended — and, set per state by
// settle, the round messages to it that stay in the network and the hash
// of all of it.
type outcome struct {
	core *live.ReplicaCore[byte]
	fp   []byte
	sent []string
	end  int
	// base hashes the above; passed reports whether the core is past a
	// round of a slot — the slot applied or decided, or open in a later
	// round.
	base   uint64
	passed func(slot uint64, r core.Round) bool
	kept   []string
	h      uint64
}

// index sets base and passed.
func (o *outcome) index() {
	h := fnv.New64a()
	h.Write([]byte(branchKey(*o)))
	next, open, decided := o.core.NextSlot(), o.core.OpenRounds(nil), o.core.DecidedUnapplied()
	o.base, o.passed = h.Sum64(), func(slot uint64, r core.Round) bool {
		_, done := decided[slot]
		return done || slot < next || slices.ContainsFunc(open, func(sr live.SlotRound) bool { return sr.Slot == slot && sr.Round > r })
	}
}

// walker is one walk's memory: every message by key, and each replica's
// outcomes by what they are a function of.
type walker struct {
	*ReplicaModel
	msgs  map[string]soupMsg
	cache map[string][]outcome
}

// Walk runs the lock-step closure breadth-first, checking every state.
func (m *ReplicaModel) Walk() (ReplicaResult, error) { return m.walk(nil) }

// walk is Walk with a hook on every new state.
func (m *ReplicaModel) walk(visit func(*rcState)) (ReplicaResult, error) {
	res := ReplicaResult{Complete: true}
	start, err := m.initialState()
	if err != nil {
		return res, err
	}
	w := walker{ReplicaModel: m, msgs: map[string]soupMsg{}, cache: map[string][]outcome{}}
	outs := make([][]outcome, m.N)
	for p := range outs { // the workload's sends are the first step's fresh envelopes
		o := outcome{core: start.cores[p], fp: start.coreFP[p]}
		for _, k := range start.keys {
			if w.msgs[k] = start.soup[k]; start.soup[k].env.From == core.ProcessID(p) {
				o.sent = append(o.sent, k)
			}
		}
		o.index()
		outs[p] = w.settle(start, core.ProcessID(p), []outcome{o})
	}
	start.fresh = start.keys
	findings := map[string]*ReplicaFinding{}
	seen := map[uint64]bool{}
	var frontier []*rcState
	add := func(f uint64, next *rcState) {
		if len(seen) >= m.MaxStates {
			res.Complete = false
			return
		}
		seen[f] = true
		res.States++
		res.observe(next.cores)
		if visit != nil {
			visit(next)
		}
		if v := m.check(next, findings); v != nil {
			res.Violation = cmp.Or(res.Violation, v)
		} else {
			frontier = append(frontier, next)
		}
	}
	f, _ := w.hash(start, outs, make([]int, m.N))
	add(f, start)

	for len(frontier) > 0 && res.Violation == nil && res.Complete {
		st := frontier[0]
		frontier[0], frontier = nil, frontier[1:]
		for p := range outs {
			o, v := w.outcomes(st, core.ProcessID(p))
			if v != nil {
				res.Violation = v
				break
			}
			outs[p] = w.settle(st, core.ProcessID(p), o)
		}
		// A violation stops the walk once this state's successors are all
		// checked, so findings that come with it (a stall and the crash
		// that caused it) are on the report too.
		pick := make([]int, m.N)
		for more := res.Violation == nil; more && res.Complete; more = odometer(pick, outs) {
			if f, ok := w.hash(st, outs, pick); ok {
				res.Transitions++
				if !seen[f] {
					add(f, w.successor(st, outs, pick))
				}
			}
		}
	}
	res.Complete = res.Complete && res.Violation == nil
	res.Findings = sortedFindings(findings)
	return res, nil
}

// odometer steps pick to the next combination of one outcome per
// replica, the last replica fastest, and reports false after the last.
func odometer(pick []int, outs [][]outcome) bool {
	for p := len(pick) - 1; p >= 0; p-- {
		if pick[p]++; pick[p] < len(outs[p]) {
			return true
		}
		pick[p] = 0
	}
	return false
}

// hash fingerprints the successor of st that pick makes, without building
// it, from each replica's outcome hash — a partition of the successor's
// state — and the crash bookkeeping. It reports false if the successor
// spends more crashes or reboots than the budget.
func (w *walker) hash(st *rcState, outs [][]outcome, pick []int) (uint64, bool) {
	var buf [8*8 + 3]byte
	b, crashed, crashes, reboots := buf[:0], st.crashed, st.crashes, st.recoveries
	for p, i := range pick {
		o := &outs[p][i]
		b = binary.LittleEndian.AppendUint64(b, o.h)
		switch o.end {
		case endCrash:
			crashed |= 1 << uint(p)
			crashes++
		case endReboot:
			reboots++
		}
	}
	h := fnv.New64a()
	h.Write(append(b, crashed, byte(crashes), byte(reboots)))
	return h.Sum64(), crashes <= w.CrashBudget && reboots <= w.RecoveryBudget
}

// successor builds the successor of st that pick makes.
func (w *walker) successor(st *rcState, outs [][]outcome, pick []int) *rcState {
	next := &rcState{
		cores:      make([]*live.ReplicaCore[byte], w.N),
		coreFP:     make([][]byte, w.N),
		crashed:    st.crashed,
		crashes:    st.crashes,
		recoveries: st.recoveries,
	}
	for p, i := range pick {
		o := outs[p][i]
		next.cores[p], next.coreFP[p] = o.core, o.fp
		switch o.end {
		case endCrash:
			next.crashed |= 1 << uint(p)
			next.crashes++
		case endReboot:
			next.recoveries++
		}
		next.fresh = append(next.fresh, o.sent...)
		next.keys = append(next.keys, o.kept...)
	}
	sort.Strings(next.fresh)
	next.keys = append(next.keys, next.fresh...)
	sort.Strings(next.keys)
	next.keys = slices.Compact(next.keys)
	next.soup = make(map[string]soupMsg, len(next.keys))
	for _, k := range next.keys {
		next.soup[k] = w.msgs[k]
	}
	return next
}

// settle sets, on each of replica p's outcomes from st, the round messages
// to p that stay in the network — all of them, or, once no reboot can make
// p live a round again (the honest disk resumes a slot past the last round
// it sent in), those of slots it has neither applied nor decided and of
// rounds it has not passed; a crashed replica keeps none — and the
// outcome's hash.
func (w *walker) settle(st *rcState, p core.ProcessID, outs []outcome) []outcome {
	prune := w.disk == nil || st.recoveries >= w.RecoveryBudget
	outs = slices.Clone(outs)
	for i := range outs {
		o := &outs[i]
		o.kept = nil
		for _, k := range st.keys {
			msg := w.msgs[k]
			if o.end != endCrash && st.live(p) && msg.to == p && msg.env.Kind == live.KindRound &&
				!(prune && o.passed(msg.env.Slot, msg.env.Round)) {
				o.kept = append(o.kept, k)
			}
		}
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, o.base))
		for _, k := range o.kept {
			h.Write(append([]byte(k), 0xFE))
		}
		o.h = h.Sum64()
	}
	return outs
}

// outcomes returns replica p's distinct outcomes of one macro-step from
// st, or the first transition-local violation on the way. They are a
// function of p's core, what it may hear and what budget is left, and are
// computed once per such situation. A crashed replica has one outcome: it
// stays as it is and sends nothing.
func (w *walker) outcomes(st *rcState, p core.ProcessID) ([]outcome, *ReplicaViolation) {
	c := st.cores[p]
	if !st.live(p) {
		o := outcome{core: c, fp: st.coreFP[p]}
		o.index()
		return []outcome{o}, nil
	}
	open := c.OpenRounds(nil)
	hears := func(env live.Envelope) int {
		if w.hears == nil {
			return 0
		}
		return w.hears(p, env)
	}
	var heard []live.Envelope
	for _, k := range st.keys {
		msg := st.soup[k]
		_, fresh := slices.BinarySearch(st.fresh, k)
		if msg.to == p && (fresh || msg.env.Kind == live.KindRound && slices.Contains(open, live.SlotRound{Slot: msg.env.Slot, Round: msg.env.Round})) &&
			hears(msg.env) >= 0 {
			heard = append(heard, msg.env)
		}
	}
	// Round messages first, lowest round first, as a lock-step round
	// delivers them; then pushes, pulls and forwards.
	slices.SortFunc(heard, func(x, y live.Envelope) int {
		return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Slot, y.Slot), cmp.Compare(x.Round, y.Round),
			cmp.Compare(x.From, y.From), bytes.Compare(x.Payload, y.Payload))
	})
	crash, reboot := st.crashes < w.CrashBudget, st.recoveries < w.RecoveryBudget
	key := append([]byte{byte(p), b2i(crash), b2i(reboot)}, st.coreFP[p]...)
	for _, env := range heard {
		k := soupKey(p, env)
		key = append(binary.AppendUvarint(key, uint64(len(k))), k...)
	}
	if outs, ok := w.cache[string(key)]; ok {
		return outs, nil
	}

	// HO(p): per sender, its round messages are heard whole or not at all,
	// and so is the rest of what it sent; a group the predicate forces a
	// message of is heard.
	group := func(env live.Envelope) uint {
		return 2*uint(env.From) + uint(b2i(env.Kind != live.KindRound))
	}
	var forced uint
	for _, env := range heard {
		if hears(env) > 0 {
			forced |= 1 << group(env)
		}
	}
	// Each group is chosen where its first message comes up, so choices
	// that agree on a prefix share its deliveries.
	var outs []outcome
	var hear func(i int, o outcome, in, out uint) *ReplicaViolation
	hear = func(i int, o outcome, in, out uint) *ReplicaViolation {
		if i == len(heard) {
			outs = append(outs, o)
			return nil
		}
		g := uint(1) << group(heard[i])
		if out&g != 0 {
			return hear(i+1, o, in, out)
		}
		if in&g == 0 && forced&g == 0 {
			if v := hear(i+1, o, in, out|g); v != nil {
				return v
			}
		}
		o, v := w.stepOutcome(o, p, live.Event[byte]{Kind: live.EvEnvelope, Env: heard[i]})
		if v != nil {
			return v
		}
		return hear(i+1, o, in|g, out)
	}
	if v := hear(0, outcome{core: c, fp: st.coreFP[p]}, 0, 0); v != nil {
		return nil, v
	}
	var ends []outcome
	for _, o := range dedup(outs) {
		if v := w.expire(&ends, o, p, open, crash, reboot); v != nil {
			return nil, v
		}
	}
	outs = dedup(ends)
	for i := range outs {
		outs[i].index()
	}
	w.cache[string(key)] = outs
	return outs, nil
}

// expire ends a replica's macro-step after what it heard: every round that
// was open and did not close times out, and an idle replica ticks. It adds
// the outcome to outs, with a crash-stop and a reboot after it if the
// budget allows.
func (w *walker) expire(outs *[]outcome, o outcome, p core.ProcessID, open []live.SlotRound, crash, reboot bool) *ReplicaViolation {
	var v *ReplicaViolation
	for _, sr := range open {
		if sr.Round < w.MaxRound && slices.Contains(o.core.OpenRounds(nil), sr) {
			if o, v = w.stepOutcome(o, p, live.Event[byte]{Kind: live.EvRoundTimeout, Slot: sr.Slot}); v != nil {
				return v
			}
		}
	}
	if len(o.core.OpenRounds(nil)) == 0 {
		if o, v = w.stepOutcome(o, p, live.Event[byte]{Kind: live.EvTick}); v != nil {
			return v
		}
	}
	*outs = append(*outs, o)
	if crash {
		*outs = append(*outs, outcome{core: o.core, fp: o.fp, end: endCrash})
	}
	if reboot {
		r := w.reboot(o.core, p)
		*outs = append(*outs, outcome{core: r, fp: r.AppendFingerprint(nil), end: endReboot})
	}
	return nil
}

func b2i(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// stepOutcome steps an outcome's core by one event and adds what it sends
// to the outcome's keys (and to msgs, the table of every message).
func (w *walker) stepOutcome(b outcome, p core.ProcessID, ev live.Event[byte]) (outcome, *ReplicaViolation) {
	c, out, v := w.stepCore(b.core, p, ev)
	next := outcome{core: c, fp: c.AppendFingerprint(nil), sent: b.sent}
	for _, o := range out {
		each(w.N, p, o, func(to core.ProcessID) {
			key := soupKey(to, o.Env)
			if _, ok := w.msgs[key]; !ok {
				w.msgs[key] = soupMsg{to: to, env: o.Env, batchIDs: carried(o.Env)}
			}
			if i, dup := slices.BinarySearch(next.sent, key); !dup {
				next.sent = slices.Insert(slices.Clip(next.sent), i, key)
			}
		})
	}
	return next, v
}

// branchKey identifies an outcome: the core's encoding and what it sent.
func branchKey(o outcome) string {
	b := binary.AppendUvarint(nil, uint64(o.end))
	b = append(binary.AppendUvarint(b, uint64(len(o.fp))), o.fp...)
	for _, k := range o.sent {
		b = append(binary.AppendUvarint(b, uint64(len(k))), k...)
	}
	return string(b)
}

// dedup drops repeated outcomes, keeping the first of each.
func dedup(outs []outcome) []outcome {
	known := map[string]bool{}
	return slices.DeleteFunc(outs, func(o outcome) bool {
		k := branchKey(o)
		if known[k] {
			return true
		}
		known[k] = true
		return false
	})
}
