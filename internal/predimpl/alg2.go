package predimpl

import (
	"math"

	"heardof/internal/core"
	"heardof/internal/simtime"
	"heardof/internal/stable"
)

// RoundMsg is the message of Algorithm 2: the HO-layer payload tagged with
// its round number.
type RoundMsg struct {
	R core.Round
	M core.Message
}

// RoundNumber implements simtime.RoundMessage for the highest-round-first
// reception policy.
func (m RoundMsg) RoundNumber() core.Round { return m.R }

// Alg2 is Algorithm 2 of the paper: it ensures P_su(π0, ·, ·) in a
// "π0-down" good period. Each round consists of one send step followed by
// receive steps until ⌈2δ+(n+2)φ⌉ of them have been taken (timeout) or a
// higher-round message arrives; then the HO layer's transition function
// runs for the finished round and empty transitions for any skipped
// rounds.
//
// r_p and s_p live on stable storage; msgsRcv, next_r and i_p are volatile
// and reinitialized on recovery, exactly as in the paper.
type Alg2 struct {
	roundKeeper
	timeout float64 // 2δ + (n+2)φ, in receive steps
	policy  simtime.ReceptionPolicy

	// Volatile state (with the keeper's).
	sending bool
	ip      int
}

var _ simtime.Proto = (*Alg2)(nil)

// Alg2Timeout returns the receive-step budget of a round: 2δ + (n+2)φ.
func Alg2Timeout(n int, phi, delta float64) float64 {
	return 2*delta + float64(n+2)*phi
}

// NewAlg2 builds process p's Algorithm 2 protocol around the HO instance
// inst. The recorder may be nil.
func NewAlg2(p core.ProcessID, n int, phi, delta float64, inst core.Instance,
	store *stable.Store, rec *Recorder) *Alg2 {
	return &Alg2{
		roundKeeper: newRoundKeeper(p, inst, store, rec),
		timeout:     Alg2Timeout(n, phi, delta),
		policy:      simtime.HighestRoundFirst{},
		sending:     true,
	}
}

// Step implements simtime.Proto (the while loop of Algorithm 2, one atomic
// step per invocation).
func (a *Alg2) Step(ctx *simtime.StepContext) {
	if a.sending {
		// Lines 7–9: send ⟨S_p^rp(s_p), rp⟩ to all.
		ctx.Broadcast(RoundMsg{R: a.rp, M: a.sendRound(ctx.Now())})
		a.ip = 0
		a.sending = false
		return
	}

	// Line 11–12: i_p is incremented and checked against the timeout
	// before the receive of the same iteration.
	a.ip++
	if float64(a.ip) >= a.timeout {
		a.nextR = maxRound(a.nextR, a.rp+1)
	}

	// Lines 14–18: receive one message (or λ).
	if env, ok := ctx.Receive(a.policy); ok {
		if rm, isRound := env.Payload.(RoundMsg); isRound {
			if rm.R >= a.rp {
				a.record(rm.R, env.From, rm.M, ctx.Now())
			}
			if rm.R > a.rp {
				a.nextR = maxRound(a.nextR, rm.R)
			}
		}
	}

	if a.nextR != a.rp {
		// Lines 19–22.
		a.finishRounds(ctx.Now())
		a.sending = true
	}
}

// OnCrash implements simtime.Proto: all volatile state is lost.
func (a *Alg2) OnCrash() {
	a.msgsRcv = nil
}

// OnRecover implements simtime.Proto: r_p and s_p are reloaded from stable
// storage; msgsRcv and next_r are reinitialized and the algorithm restarts
// at its loop head (line 6), i.e. by sending its round-r_p message.
func (a *Alg2) OnRecover() {
	a.sending = true
	a.ip = 0
	a.reload()
}

// Theorem3GoodPeriodBound is the closed-form bound of Theorem 3: the
// minimal length of a (non-initial) π0-down good period after which
// Algorithm 2 guarantees P_su(π0, ρ0, ρ0+x−1):
//
//	(x+1)(2δ+(n+2)φ+1)φ + δ + φ.
func Theorem3GoodPeriodBound(n int, phi, delta float64, x int) float64 {
	return float64(x+1)*(2*delta+float64(n+2)*phi+1)*phi + delta + phi
}

// Theorem5InitialBound is the closed-form bound of Theorem 5: the minimal
// length of an initial good period for P_su(π0, 1, x):
//
//	x(2δ+(n+2)φ+1)φ.
func Theorem5InitialBound(n int, phi, delta float64, x int) float64 {
	return float64(x) * (2*delta + float64(n+2)*phi + 1) * phi
}

// Corollary4P2otrBound is the single-good-period length for P_otr^2 via
// Algorithm 2 (Corollary 4): (6δ+3nφ+6φ+3)φ + δ + φ.
func Corollary4P2otrBound(n int, phi, delta float64) float64 {
	return (6*delta+3*float64(n)*phi+6*phi+3)*phi + delta + phi
}

// Corollary4P11otrBound is the per-period length when P_otr^1/1 is
// implemented with two good periods (Corollary 4): (4δ+2nφ+4φ+2)φ + δ + φ.
func Corollary4P11otrBound(n int, phi, delta float64) float64 {
	return (4*delta+2*float64(n)*phi+4*phi+2)*phi + delta + phi
}

// CeilTimeout returns the integral number of receive steps implied by the
// real-valued timeout (for tests that count steps).
func CeilTimeout(timeout float64) int { return int(math.Ceil(timeout)) }
