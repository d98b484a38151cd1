package predimpl

import (
	"heardof/internal/core"
	"heardof/internal/simtime"
	"heardof/internal/stable"
)

// Stable-storage keys shared by Algorithms 2 and 3: the paper stores the
// round number r_p and the HO-algorithm state s_p.
const (
	keyRound = "rp"
	keyState = "sp"
)

// roundKeeper is the round-keeping Algorithms 2 and 3 share verbatim
// (their lines differ only in how next_r gets raised): r_p and s_p on
// stable storage, the messages received per round, and the step from r_p
// to next_r — T_p^rp on what round r_p heard, empty transitions for the
// rounds skipped — with every send, reception, transition and decision
// reported to the recorder.
type roundKeeper struct {
	p     core.ProcessID
	inst  core.Instance
	store *stable.Store
	rec   *Recorder // may be nil

	// Volatile state, reinitialized on recovery.
	rp      core.Round
	nextR   core.Round
	msgsRcv map[core.Round]map[core.ProcessID]core.Message
}

// newRoundKeeper starts in round 1 with r_p and s_p saved.
func newRoundKeeper(p core.ProcessID, inst core.Instance, store *stable.Store, rec *Recorder) roundKeeper {
	k := roundKeeper{
		p: p, inst: inst, store: store, rec: rec,
		rp: 1, nextR: 1,
		msgsRcv: make(map[core.Round]map[core.ProcessID]core.Message),
	}
	k.persist()
	return k
}

// Round returns the current round r_p.
func (k *roundKeeper) Round() core.Round { return k.rp }

func (k *roundKeeper) persist() {
	k.store.Save(keyRound, k.rp)
	if rec, ok := k.inst.(core.Recoverable); ok {
		k.store.Save(keyState, rec.Snapshot())
	}
}

// reload is the shared half of OnRecover: r_p and s_p come back from
// stable storage, msgsRcv and next_r are reinitialized.
func (k *roundKeeper) reload() {
	k.msgsRcv = make(map[core.Round]map[core.ProcessID]core.Message)
	if v, ok := k.store.Load(keyRound); ok {
		if rd, isRound := v.(core.Round); isRound {
			k.rp = rd
		}
	}
	k.nextR = k.rp
	if v, ok := k.store.Load(keyState); ok {
		if rec, isRec := k.inst.(core.Recoverable); isRec {
			rec.Restore(v)
		}
	}
}

// sendRound returns S_p^rp(s_p), the payload of the round-r_p message.
func (k *roundKeeper) sendRound(now simtime.Time) core.Message {
	msg := k.inst.Send(k.rp)
	if k.rec != nil {
		k.rec.RecordSend(k.p, k.rp, now)
	}
	return msg
}

// record files from's round-rd message (the first one counts).
func (k *roundKeeper) record(rd core.Round, from core.ProcessID, m core.Message, now simtime.Time) {
	byFrom, ok := k.msgsRcv[rd]
	if !ok {
		byFrom = make(map[core.ProcessID]core.Message)
		k.msgsRcv[rd] = byFrom
	}
	if _, dup := byFrom[from]; !dup {
		byFrom[from] = m
		if k.rec != nil {
			k.rec.RecordReception(k.p, rd, from, now)
		}
	}
}

// finishRounds runs T_p^rp with the received round-r_p messages and empty
// transitions for the skipped rounds, then enters next_r.
func (k *roundKeeper) finishRounds(now simtime.Time) {
	inbox, ho := collectInbox(k.msgsRcv[k.rp])
	k.inst.Transition(k.rp, inbox)
	k.observe(k.rp, ho, now)

	for rd := k.rp + 1; rd < k.nextR; rd++ {
		k.inst.Transition(rd, nil)
		k.observe(rd, core.EmptySet, now)
	}

	// Discard messages for rounds below the new round (the space
	// optimization the paper notes is safe).
	//holint:allow nodeterminism conditional delete-all; each key is judged independently
	for rd := range k.msgsRcv {
		if rd < k.nextR {
			delete(k.msgsRcv, rd)
		}
	}

	k.rp = k.nextR
	k.persist()
}

func (k *roundKeeper) observe(rd core.Round, ho core.PIDSet, now simtime.Time) {
	if k.rec == nil {
		return
	}
	k.rec.RecordTransition(k.p, rd, ho, now)
	if v, ok := k.inst.Decided(); ok {
		k.rec.RecordDecision(k.p, v, rd, now)
	}
}

func maxRound(a, b core.Round) core.Round {
	if a > b {
		return a
	}
	return b
}

// collectInbox converts a per-sender message map into a deterministic
// inbox slice plus its heard-of set.
func collectInbox(byFrom map[core.ProcessID]core.Message) ([]core.IncomingMessage, core.PIDSet) {
	if len(byFrom) == 0 {
		return nil, core.EmptySet
	}
	var ho core.PIDSet
	//holint:allow nodeterminism commutative set fold; the inbox below is built in PIDSet order
	for from := range byFrom {
		ho = ho.Add(from)
	}
	inbox := make([]core.IncomingMessage, 0, len(byFrom))
	ho.ForEach(func(from core.ProcessID) {
		inbox = append(inbox, core.IncomingMessage{From: from, Payload: byFrom[from]})
	})
	return inbox, ho
}
