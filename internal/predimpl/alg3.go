package predimpl

import (
	"heardof/internal/core"
	"heardof/internal/simtime"
	"heardof/internal/stable"
)

// InitMsg is the ⟨INIT, ρ, msg⟩ message of Algorithm 3: a process that has
// exhausted its receive-step budget for round ρ−1 announces its intention
// to enter round ρ, carrying its round-(ρ−1) payload. Receiving f+1
// distinct INITs for r_p+1 lets a process advance; receiving an INIT for a
// higher round counts as a round-(ρ−1) message.
type InitMsg struct {
	R core.Round // the round the sender wants to enter
	M core.Message
}

// RoundNumber implements simtime.RoundMessage: an INIT for round ρ orders
// like a round-ρ message (it is fresher than the round-(ρ−1) ROUND
// messages it accompanies).
func (m InitMsg) RoundNumber() core.Round { return m.R }

// Alg3 is Algorithm 3 of the paper: it ensures P_k(π0, ·, ·) in a
// "π0-arbitrary" good period, tolerating f < n/2 processes outside π0
// with completely arbitrary behaviour. Its timeout is τ0 = 2δ + (2n+1)φ
// receive steps; its reception policy is round-robin-highest so that a
// fast arbitrary process cannot starve the slow ones; and a process that
// sees a ROUND message for a higher round joins it immediately — the
// "fast synchronization" distinguishing it from Byzantine clock
// synchronization algorithms.
//
// The paper's loop sends the INIT inside the receive loop when i ≥ τ0; a
// send occupies its own atomic step, and the proofs account for exactly
// one INIT per good-period round (Lemma B.8), so the INIT is sent when the
// timeout first expires and re-sent every τ0 receive steps thereafter
// (lost INITs from bad periods must eventually be replaced or the system
// would stall).
type Alg3 struct {
	roundKeeper
	n       int
	f       int
	timeout float64 // τ0 = 2δ + (2n+1)φ, in receive steps
	policy  *simtime.RoundRobinHighest

	// Ablation knobs (zero values = paper-faithful behaviour).
	policyOverride func(n int) simtime.ReceptionPolicy
	altPolicy      simtime.ReceptionPolicy
	initQuorum     int
	disableCatchup bool

	// Volatile state (with the keeper's).
	phase    int // alg3Send, alg3Recv, alg3SendInit
	i        int
	nextInit float64
	lastMsg  core.Message
	initFrom map[core.Round]core.PIDSet
}

const (
	alg3Send = iota + 1
	alg3Recv
	alg3SendInit
)

var _ simtime.Proto = (*Alg3)(nil)

// Alg3Timeout returns τ0 = 2δ + (2n+1)φ.
func Alg3Timeout(n int, phi, delta float64) float64 {
	return 2*delta + float64(2*n+1)*phi
}

// NewAlg3 builds process p's Algorithm 3 protocol around the HO instance
// inst; f is the resilience parameter (f < n/2). The recorder may be nil.
func NewAlg3(p core.ProcessID, n, f int, phi, delta float64, inst core.Instance,
	store *stable.Store, rec *Recorder) *Alg3 {
	a := &Alg3{
		roundKeeper: newRoundKeeper(p, inst, store, rec),
		n:           n,
		f:           f,
		timeout:     Alg3Timeout(n, phi, delta),
		initQuorum:  f + 1,
	}
	a.resetVolatile()
	return a
}

func (a *Alg3) resetVolatile() {
	a.phase = alg3Send
	a.i = 0
	a.nextInit = a.timeout
	a.lastMsg = nil
	a.initFrom = make(map[core.Round]core.PIDSet)
	if a.policyOverride != nil {
		a.policy = nil
		a.altPolicy = a.policyOverride(a.n)
	} else {
		a.policy = &simtime.RoundRobinHighest{N: a.n}
	}
}

// receptionPolicy returns the active policy (paper's round-robin-highest
// unless an ablation overrode it).
func (a *Alg3) receptionPolicy() simtime.ReceptionPolicy {
	if a.altPolicy != nil {
		return a.altPolicy
	}
	return a.policy
}

// Step implements simtime.Proto (one atomic step of Algorithm 3's loop).
func (a *Alg3) Step(ctx *simtime.StepContext) {
	switch a.phase {
	case alg3Send:
		// Lines 7–9: send ⟨ROUND, rp, S_p^rp(s_p)⟩ to all.
		a.lastMsg = a.sendRound(ctx.Now())
		ctx.Broadcast(RoundMsg{R: a.rp, M: a.lastMsg})
		a.i = 0
		a.nextInit = a.timeout
		a.phase = alg3Recv

	case alg3SendInit:
		// Line 20: send ⟨INIT, rp+1, msg⟩ to all (its own send step).
		ctx.Broadcast(InitMsg{R: a.rp + 1, M: a.lastMsg})
		a.phase = alg3Recv

	default: // alg3Recv
		a.receiveStep(ctx)
	}
}

func (a *Alg3) receiveStep(ctx *simtime.StepContext) {
	// Line 11: receive a message.
	if env, ok := ctx.Receive(a.receptionPolicy()); ok {
		switch m := env.Payload.(type) {
		case RoundMsg:
			// Line 12–15 for ⟨ROUND, msg, r′⟩.
			if m.R >= a.rp {
				a.record(m.R, env.From, m.M, ctx.Now())
			}
			if m.R > a.rp && !a.disableCatchup {
				a.nextR = maxRound(a.nextR, m.R)
			}
		case InitMsg:
			// Line 12–15 for ⟨INIT, msg, r′+1⟩: counts as a round-r′
			// message with r′ = m.R−1.
			rPrime := m.R - 1
			if rPrime >= a.rp {
				a.record(rPrime, env.From, m.M, ctx.Now())
			}
			if rPrime > a.rp {
				a.nextR = maxRound(a.nextR, rPrime)
			}
			// Lines 16–17: f+1 distinct INITs for rp+1.
			a.initFrom[m.R] = a.initFrom[m.R].Add(env.From)
			if a.initFrom[a.rp+1].Len() >= a.initQuorum {
				a.nextR = maxRound(a.nextR, a.rp+1)
			}
		}
	}

	// Lines 18–20: i is incremented after the receive; at the timeout the
	// INIT for the next round is sent. The paper's loop would resend on
	// every subsequent step (i ≥ τ0 stays true), while its proofs account
	// for a single INIT send per round; we resend every τ0 receive steps,
	// which matches the good-period accounting (a good-period round
	// completes before a second INIT fires) and preserves liveness when
	// an INIT is lost in a bad period.
	a.i++
	if float64(a.i) >= a.nextInit {
		a.nextInit += a.timeout
		a.phase = alg3SendInit
	}

	if a.nextR != a.rp {
		a.finishRounds(ctx.Now())
	}
}

// finishRounds runs lines 21–24: Algorithm 2's, plus forgetting the INITs
// of the rounds left behind.
func (a *Alg3) finishRounds(now simtime.Time) {
	a.roundKeeper.finishRounds(now)
	//holint:allow nodeterminism conditional delete-all; each key is judged independently
	for rd := range a.initFrom {
		if rd <= a.rp {
			delete(a.initFrom, rd)
		}
	}
	a.phase = alg3Send
}

// OnCrash implements simtime.Proto.
func (a *Alg3) OnCrash() {
	a.msgsRcv = nil
	a.initFrom = nil
}

// OnRecover implements simtime.Proto: reload r_p and s_p, reinitialize
// volatile state, restart at the loop head.
func (a *Alg3) OnRecover() {
	a.resetVolatile()
	a.reload()
}

// Theorem6GoodPeriodBound is the closed-form bound of Theorem 6: minimal
// length of a π0-arbitrary good period for P_k(π0, ρ0+1, ρ0+x) with
// f < n/2 (τ0 = 2δ+2nφ+φ):
//
//	(x+2)[τ0φ + δ + nφ + 2φ] + τ0φ.
func Theorem6GoodPeriodBound(n int, phi, delta float64, x int) float64 {
	tau0 := 2*delta + 2*float64(n)*phi + phi
	return float64(x+2)*(tau0*phi+delta+float64(n)*phi+2*phi) + tau0*phi
}

// Theorem7InitialBound is the closed-form bound of Theorem 7: minimal
// length of an initial good period for P_k(π0, 1, x):
//
//	(x−1)[τ0φ + δ + nφ + 2φ] + τ0φ + φ.
func Theorem7InitialBound(n int, phi, delta float64, x int) float64 {
	tau0 := 2*delta + 2*float64(n)*phi + phi
	return float64(x-1)*(tau0*phi+delta+float64(n)*phi+2*phi) + tau0*phi + phi
}

// Section422cFullStackBound is the §4.2.2(c) composition: the minimal
// π0-arbitrary good period for P_otr^2(π0) via Algorithms 3+4, i.e. 2f+3
// rounds satisfying P_k:
//
//	(2f+5)[τ0φ + δ + nφ + 2φ] + τ0φ.
func Section422cFullStackBound(n, f int, phi, delta float64) float64 {
	tau0 := 2*delta + 2*float64(n)*phi + phi
	return float64(2*f+5)*(tau0*phi+delta+float64(n)*phi+2*phi) + tau0*phi
}
