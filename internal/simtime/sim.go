package simtime

import (
	"fmt"

	"heardof/internal/core"
	"heardof/internal/xrand"
)

// Proto is the per-process protocol run by the simulator — the predicate
// implementation layer of the paper (Algorithms 2 and 3 live here).
//
// Step is invoked once per atomic step; the protocol must perform exactly
// one action through the context: one Broadcast (a send step) or one
// Receive (a receive step). The context is only valid for the duration of
// the call — the simulator reuses it across steps, so protocols must not
// retain it. OnCrash is invoked when the process crashes (volatile state
// must be dropped); OnRecover when it comes back up (state must be rebuilt
// from stable storage).
type Proto interface {
	Step(ctx *StepContext)
	OnCrash()
	OnRecover()
}

// StepContext gives a protocol access to the simulator during one step.
type StepContext struct {
	sim   *Sim
	p     core.ProcessID
	now   Time
	acted bool
}

// Now returns the current normalized time. Protocols must not use it for
// decisions (the paper's processes have no clock); it exists for trace
// timestamps.
func (c *StepContext) Now() Time { return c.now }

// PID returns the process executing the step.
func (c *StepContext) PID() core.ProcessID { return c.p }

// Broadcast performs a send step: the payload is sent to all processes
// (including the sender), as the paper's send-to-all primitive does.
func (c *StepContext) Broadcast(payload any) {
	if c.acted {
		c.sim.contractViolations++
		return
	}
	c.acted = true
	c.sim.broadcast(c.p, payload, c.now)
}

// Receive performs a receive step: one buffered message selected by the
// policy is consumed and returned. ok is false when the empty message λ
// was received.
func (c *StepContext) Receive(policy ReceptionPolicy) (env Envelope, ok bool) {
	if c.acted {
		c.sim.contractViolations++
		return Envelope{}, false
	}
	c.acted = true
	return c.sim.receive(c.p, policy)
}

// event kinds. Kind 0 is a tombstone: a purged event left in place in the
// heap and discarded when it reaches the root.
const (
	evStep = iota + 1
	evMakeReady
	evCrash
	evRecover
	evPeriod
)

// event is one future-event-list entry, stored by value in eventHeap.
type event struct {
	t    Time
	seq  uint64
	kind int
	p    core.ProcessID
	env  Envelope
}

// Stats aggregates observable counters of a run.
type Stats struct {
	Steps        int64
	Sends        int64
	MessagesSent int64 // Sends × n (per-destination copies)
	Delivered    int64 // moved to a buffer set
	Received     int64 // consumed by receive steps
	Dropped      int64 // lost in transit
	Purged       int64 // removed at π0-down period starts
	Crashes      int64
	Recoveries   int64
}

type procState struct {
	up     bool
	buffer []Envelope
	// downByPeriod marks processes forced down by a π0-down good period
	// (they are revived at the period's end unless individually crashed).
	downByPeriod bool
}

// Sim is the discrete-event simulator. It is single-threaded and
// deterministic for a fixed Config (including Seed) and protocol.
//
// The event core is allocation-free in steady state: events live by value
// in a 4-ary heap, the period in force is maintained incrementally (it
// only changes at evPeriod events), envelopes carry their payload's round
// number so reception policies never type-assert, and the per-step
// context is reused. DESIGN.md's Performance section describes the design
// and why determinism survives it.
type Sim struct {
	cfg   Config
	rng   *xrand.Rand
	queue eventHeap
	seq   uint64
	now   Time

	// per is the period in force at the current event time; it changes
	// only when an evPeriod event fires, saving a period lookup per step
	// and per send.
	per Period

	// arrivals numbers envelopes as they enter buffer sets; reception
	// policies use it as the final tie-break, making their selection a
	// total order independent of buffer layout.
	arrivals uint64

	procs  []procState
	protos []Proto

	// sctx is the reused step context; see Proto.
	sctx StepContext

	stats              Stats
	contractViolations int
}

// New creates a simulator; factory is called once per process to build its
// protocol instance.
func New(cfg Config, factory func(p core.ProcessID) Proto) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("simtime config: %w", err)
	}
	s := &Sim{
		cfg:    cfg,
		rng:    xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15),
		procs:  make([]procState, cfg.N),
		protos: make([]Proto, cfg.N),
	}
	for p := 0; p < cfg.N; p++ {
		s.procs[p].up = true
		s.protos[p] = factory(core.ProcessID(p))
	}
	// Period boundaries.
	for _, per := range cfg.Periods {
		if per.Start > 0 {
			s.push(event{t: per.Start, kind: evPeriod})
		}
	}
	s.applyPeriodRules(0)
	// Scheduled crashes and recoveries.
	for _, ce := range cfg.Crashes {
		if ce.P < 0 || int(ce.P) >= cfg.N {
			return nil, fmt.Errorf("crash event for unknown process %d", ce.P)
		}
		s.push(event{t: ce.At, kind: evCrash, p: ce.P})
		if ce.RecoverAt >= 0 {
			if ce.RecoverAt < ce.At {
				return nil, fmt.Errorf("process %d recovers at %v before crashing at %v",
					ce.P, ce.RecoverAt, ce.At)
			}
			s.push(event{t: ce.RecoverAt, kind: evRecover, p: ce.P})
		}
	}
	// First step of every (up) process.
	for p := 0; p < cfg.N; p++ {
		if s.procs[p].up {
			s.scheduleStep(core.ProcessID(p), 0)
		}
	}
	return s, nil
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Stats returns a copy of the run counters.
func (s *Sim) Stats() Stats { return s.stats }

// ContractViolations counts protocol steps that attempted more than one
// action; a correct protocol keeps this at zero.
func (s *Sim) ContractViolations() int { return s.contractViolations }

// Up reports whether process p is currently up.
func (s *Sim) Up(p core.ProcessID) bool { return s.procs[p].up }

// Proto returns process p's protocol instance (for inspection).
func (s *Sim) Proto(p core.ProcessID) Proto { return s.protos[p] }

// BufferLen returns the size of p's buffer set (for tests).
func (s *Sim) BufferLen(p core.ProcessID) int { return len(s.procs[p].buffer) }

//holint:hotpath
func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

//holint:hotpath
func (s *Sim) scheduleStep(p core.ProcessID, t Time) {
	gap := s.stepGap(p)
	s.push(event{t: t + gap, kind: evStep, p: p})
}

// stepGap draws the time until p's next step under the period in force.
//
//holint:hotpath
func (s *Sim) stepGap(p core.ProcessID) Time {
	synchronous := s.per.Kind != Bad && s.per.Pi0.Has(p)
	if synchronous {
		switch s.cfg.StepMode {
		case StepFast:
			return 1
		case StepJitter:
			return s.rng.Between(1, s.cfg.Phi)
		default:
			return s.cfg.Phi
		}
	}
	// Bad period, or outside π0 in a π0-arbitrary period: arbitrary speed.
	return s.rng.Between(s.cfg.Bad.MinGap, s.cfg.Bad.MaxGap)
}

// broadcast implements a send step: one copy per destination enters the
// network and is scheduled for make-ready per the link's current regime.
// The payload's round number is resolved once here — not per buffered
// message at selection time — and the n events are enqueued after a single
// capacity reservation.
func (s *Sim) broadcast(from core.ProcessID, payload any, t Time) {
	s.stats.Sends++
	round := roundOf(payload)
	fromGood := s.per.Kind != Bad && s.per.Pi0.Has(from)
	s.queue.reserve(s.cfg.N)
	for q := 0; q < s.cfg.N; q++ {
		s.stats.MessagesSent++
		to := core.ProcessID(q)
		goodLink := fromGood && s.per.Pi0.Has(to)
		var delay Time
		if goodLink {
			if s.cfg.DeliveryMode == DeliverJitter {
				delay = s.rng.Between(s.cfg.Delta/10, s.cfg.Delta)
			} else {
				delay = s.cfg.Delta
			}
		} else {
			if s.rng.Bool(s.cfg.Bad.LossProb) {
				s.stats.Dropped++
				continue
			}
			delay = s.rng.Between(s.cfg.Bad.MinDelay, s.cfg.Bad.MaxDelay)
		}
		s.push(event{
			t:    t + delay,
			kind: evMakeReady,
			p:    to,
			env:  Envelope{From: from, To: to, Payload: payload, SentAt: t, round: round},
		})
	}
}

// fifoDefault is the nil-policy fallback, boxed once at package level
// so receive never converts FIFO{} to an interface per call.
var fifoDefault ReceptionPolicy = FIFO{}

// receive implements a receive step. Removal is an O(1) swap with the last
// element: selection is a total order over envelope keys (see
// ReceptionPolicy), so it does not depend on buffer layout.
func (s *Sim) receive(p core.ProcessID, policy ReceptionPolicy) (Envelope, bool) {
	buf := s.procs[p].buffer
	if policy == nil {
		policy = fifoDefault
	}
	idx := policy.Select(buf)
	if idx < 0 || idx >= len(buf) {
		return Envelope{}, false // λ
	}
	env := buf[idx]
	last := len(buf) - 1
	buf[idx] = buf[last]
	buf[last] = Envelope{} // do not pin the payload
	s.procs[p].buffer = buf[:last]
	s.stats.Received++
	return env, true
}

// applyPeriodRules installs the period in force at time t and enforces its
// entry conditions: a π0-down period forces processes outside π0 down and
// purges their in-flight and buffered messages; leaving a π0-down period
// revives the processes it forced down.
func (s *Sim) applyPeriodRules(t Time) {
	s.per, _ = s.cfg.PeriodAt(t)
	per := s.per

	// Revive processes that were down only because of a previous π0-down
	// period (and are allowed up now).
	for p := range s.procs {
		pid := core.ProcessID(p)
		forcedDown := per.Kind == GoodDown && !per.Pi0.Has(pid)
		if s.procs[p].downByPeriod && !forcedDown {
			s.procs[p].downByPeriod = false
			if !s.procs[p].up {
				s.recover(pid, t)
			}
		}
	}

	if per.Kind != GoodDown {
		return
	}
	outside := per.Pi0.Complement(s.cfg.N)
	outside.ForEach(func(p core.ProcessID) {
		s.procs[p].downByPeriod = true
		if s.procs[p].up {
			s.crash(p, t)
		}
	})
	// "No messages from processes in π0̄ are in transit": purge network
	// (pending make-ready events) and buffers of messages from outside.
	ev := s.queue.ev
	for i := range ev {
		if ev[i].kind == evMakeReady && outside.Has(ev[i].env.From) {
			ev[i].kind = 0 // tombstone; discarded at the heap root
			ev[i].env = Envelope{}
			s.stats.Purged++
		}
	}
	for p := range s.procs {
		kept := s.procs[p].buffer[:0]
		for _, env := range s.procs[p].buffer {
			if outside.Has(env.From) {
				s.stats.Purged++
				continue
			}
			kept = append(kept, env)
		}
		for i := len(kept); i < len(s.procs[p].buffer); i++ {
			s.procs[p].buffer[i] = Envelope{}
		}
		s.procs[p].buffer = kept
	}
}

func (s *Sim) crash(p core.ProcessID, _ Time) {
	if !s.procs[p].up {
		return
	}
	s.procs[p].up = false
	s.procs[p].buffer = nil // volatile state is lost
	s.stats.Crashes++
	s.protos[p].OnCrash()
	// Pending step events for p are skipped when popped (process down).
}

func (s *Sim) recover(p core.ProcessID, t Time) {
	if s.procs[p].up {
		return
	}
	if s.procs[p].downByPeriod {
		return // still forced down by the period in force
	}
	s.procs[p].up = true
	s.stats.Recoveries++
	s.protos[p].OnRecover()
	s.scheduleStep(p, t)
}

// processEvent pops and handles exactly one event (which may be a no-op:
// a tombstone, a skipped step of a down process, a delivery to a down
// process); it returns false when the queue is empty. Handling only one
// pop per call is what keeps RunUntilTime/RunUntil honest: their time
// bound is re-checked against the heap head before every pop, so a no-op
// event inside the bound can never drag execution past it.
//
//holint:hotpath
func (s *Sim) processEvent() bool {
	if s.queue.len() == 0 {
		return false
	}
	e := s.queue.popMin()
	if e.kind == 0 {
		return true // tombstoned
	}
	s.now = e.t
	switch e.kind {
	case evStep:
		if !s.procs[e.p].up {
			break // crashed: step skipped, next one comes on recovery
		}
		s.sctx = StepContext{sim: s, p: e.p, now: e.t}
		s.protos[e.p].Step(&s.sctx)
		s.stats.Steps++
		s.scheduleStep(e.p, e.t)
	case evMakeReady:
		if !s.procs[e.p].up {
			// Messages arriving at a down process are lost (its buffer
			// is volatile and it is not accepting).
			s.stats.Dropped++
			break
		}
		e.env.seq = s.arrivals
		s.arrivals++
		s.procs[e.p].buffer = append(s.procs[e.p].buffer, e.env)
		s.stats.Delivered++
	case evCrash:
		s.crash(e.p, e.t)
	case evRecover:
		s.recover(e.p, e.t)
	case evPeriod:
		s.applyPeriodRules(e.t)
	}
	return true
}

// InjectForTest places an envelope directly into p's buffer set, bypassing
// the network; the round cache and arrival number are stamped as delivery
// would. Test support only.
func (s *Sim) InjectForTest(p core.ProcessID, env Envelope) {
	env.round = roundOf(env.Payload)
	env.seq = s.arrivals
	s.arrivals++
	s.procs[p].buffer = append(s.procs[p].buffer, env)
}

// StepContextForTest returns a fresh step context for process p at the
// current simulation time, letting tests drive a Proto directly. Test
// support only.
func (s *Sim) StepContextForTest(p core.ProcessID) *StepContext {
	return &StepContext{sim: s, p: p, now: s.now}
}

// RunUntilTime advances the simulation until the clock passes t. The heap
// is skimmed of tombstones before each peek so a purged event with an
// early timestamp cannot lure the loop into executing a live event beyond
// the bound.
func (s *Sim) RunUntilTime(t Time) {
	for {
		s.queue.skim()
		if s.queue.len() == 0 || s.queue.ev[0].t > t {
			break
		}
		if !s.processEvent() {
			break
		}
	}
	if s.now < t {
		s.now = t
	}
}

// RunUntil advances the simulation until cond() holds (checked after every
// event) or the clock passes limit; it reports whether cond was met.
func (s *Sim) RunUntil(cond func() bool, limit Time) bool {
	if cond() {
		return true
	}
	for {
		s.queue.skim()
		if s.queue.len() == 0 || s.queue.ev[0].t > limit {
			break
		}
		if !s.processEvent() {
			return cond()
		}
		if cond() {
			return true
		}
	}
	return cond()
}
