// Package rsm is the shared replication engine under internal/kvstore and
// internal/abcast — the service layer the paper's introduction motivates
// ("consensus … appears when implementing atomic broadcast, group
// membership, etc."), scaled past one-command-per-slot:
//
//   - Command batching. Each consensus slot decides a BATCH of commands.
//     Proposals are bitmasks over a window of up to 63 uncommitted
//     commands (the codec abcast pioneered, generalized here), so one
//     consensus instance amortizes over bursts: draining M commands with
//     batch size B takes ⌈M/B⌉ slots instead of M.
//   - Slot pipelining. Up to W consecutive slots run in flight at once,
//     each over a disjoint chunk of the pending window, executed through
//     internal/sweep's deterministic worker pool and applied strictly in
//     slot order. The engine's observable state is byte-identical for
//     every Parallel setting — the same guarantee the experiment tables
//     have.
//   - Client sessions with dedup. Commands carry a (client, sequence)
//     identity; a retried submission whose sequence number was already
//     accepted is dropped at the door, so every command is applied
//     exactly once no matter how often a client retries.
//
// Faults live where they always do in this repo: each slot's consensus
// instance runs against a per-slot core.HOProvider, so the same service
// stack can be driven through fault-free, lossy, and crash-recovery
// environments (package adversary) and measured — see shard.RunWorkload
// and experiments E10.
package rsm

import (
	"context"
	"errors"
	"fmt"

	"heardof/internal/core"
	"heardof/internal/sweep"
)

// MaxBatch is the widest batch one slot can decide: proposals are bitmasks
// in a core.Value and bit 63 stays clear so masks remain non-negative.
const MaxBatch = 63

// ClientID identifies a client session.
type ClientID int

// ErrSlotUndecided is returned when replication cannot complete because a
// slot's consensus instance exhausted its round budget, or a Drain ran out
// of slot budget with commands still pending. Both kvstore and abcast
// surface this sentinel unchanged, so errors.Is works across the stack.
var ErrSlotUndecided = errors.New("rsm: slot undecided within the round budget")

// Config parameterizes an Engine.
type Config struct {
	// N is the number of consensus processes (= replicas).
	N int
	// Algorithm decides each slot (OneThirdRule in every current user).
	Algorithm core.Algorithm
	// Provider supplies the HO environment of each consensus instance.
	// The index is the instance's LAUNCH number: it advances past failed
	// and discarded speculative instances, so a retried slot draws a
	// fresh environment rather than deterministically replaying the
	// fault pattern that killed it (with no failures, launch number and
	// slot number coincide). With Pipeline > 1, providers of concurrent
	// instances are used from different goroutines; Provider is always
	// CALLED sequentially in launch order, so forking a shared RNG per
	// call is safe, but the returned providers must not share mutable
	// state with each other.
	Provider func(slot int) core.HOProvider
	// MaxRounds bounds each slot's consensus instance.
	MaxRounds core.Round
	// BatchSize caps commands per slot, 1..MaxBatch. 0 means MaxBatch.
	BatchSize int
	// Pipeline is the number of slots in flight per window, ≥ 1. 0 means 1.
	Pipeline int
	// Parallel is the sweep worker count for in-flight slots; 0 means
	// Pipeline workers. Observable engine state is identical for every
	// value.
	Parallel int
}

// Tuning groups the service-layer knobs the applications built on the
// engine (kvstore, abcast) pass through: zero values mean the Config
// defaults (MaxBatch-wide batches, no pipelining).
type Tuning struct {
	BatchSize int
	Pipeline  int
	Parallel  int
}

// entry is one accepted command with its session identity and the wall
// round at which it was accepted (for latency accounting).
type entry[C any] struct {
	client    ClientID
	seq       uint64
	cmd       C
	submitted core.Round
}

// Stats are cumulative engine counters. All fields are deterministic
// functions of the submission history and the per-slot environments.
type Stats struct {
	// Slots counts committed consensus slots (including empty batches).
	Slots int
	// Launched counts consensus instances started, including failed ones
	// and speculative instances discarded when an earlier slot failed.
	Launched int
	// Aborted counts launched instances that did not commit.
	Aborted int
	// Committed counts commands applied.
	Committed int
	// TotalRounds sums rounds across committed slots (consensus work).
	TotalRounds core.Round
	// WallRounds is elapsed wall-clock time in rounds: pipelined slots of
	// one window run concurrently, so a window costs the max of its
	// slots' rounds, not the sum.
	WallRounds core.Round
}

// Engine replicates commands of type C across N state machines.
type Engine[C any] struct {
	cfg   Config
	apply func(replica int, cmd C)

	table   []entry[C] // append-only accepted-command table
	pending []int      // table indexes awaiting commit, FIFO
	maxSeen map[ClientID]uint64
	applied map[ClientID]uint64

	stats     Stats
	latencies []core.Round
	eng       *sweep.Engine
}

// New creates an engine; apply is invoked for every (replica, committed
// command) pair, replicas in order, commands in the total commit order.
func New[C any](cfg Config, apply func(replica int, cmd C)) (*Engine[C], error) {
	if cfg.N < 1 || cfg.N > core.MaxProcesses {
		return nil, fmt.Errorf("rsm: n = %d out of range [1, %d]", cfg.N, core.MaxProcesses)
	}
	if cfg.Algorithm == nil || cfg.Provider == nil {
		return nil, errors.New("rsm: nil algorithm or provider")
	}
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("rsm: MaxRounds = %d, need ≥ 1", cfg.MaxRounds)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = MaxBatch
	}
	if cfg.BatchSize < 1 || cfg.BatchSize > MaxBatch {
		return nil, fmt.Errorf("rsm: BatchSize = %d out of range [1, %d]", cfg.BatchSize, MaxBatch)
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = 1
	}
	if cfg.Pipeline < 1 {
		return nil, fmt.Errorf("rsm: Pipeline = %d, need ≥ 1", cfg.Pipeline)
	}
	if apply == nil {
		return nil, errors.New("rsm: nil apply function")
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = cfg.Pipeline
	}
	return &Engine[C]{
		cfg:     cfg,
		apply:   apply,
		maxSeen: make(map[ClientID]uint64),
		applied: make(map[ClientID]uint64),
		eng:     &sweep.Engine{Workers: workers},
	}, nil
}

// Submit offers a command under a client session. Sequence numbers must be
// positive; a submission whose sequence is not above the client's
// high-water mark is a retry (or a reordered duplicate) and is dropped —
// accepted reports whether the command entered the log. Dedup covers both
// pending and already-applied commands, so a retry is applied exactly
// once in total.
func (e *Engine[C]) Submit(client ClientID, seq uint64, cmd C) (accepted bool, err error) {
	if seq == 0 {
		return false, fmt.Errorf("rsm: client %d submitted sequence 0 (sequences start at 1)", client)
	}
	if seq <= e.maxSeen[client] {
		return false, nil
	}
	e.accept(client, seq, cmd)
	return true, nil
}

// SubmitNext enters cmd under the client's session at the next fresh
// sequence number (it can never be rejected as a duplicate), returning
// the sequence used. It is the auto-session path for callers that model
// every submission as a new command — kvstore.Submit and
// abcast.Broadcast — rather than a client retrying an identified one.
func (e *Engine[C]) SubmitNext(client ClientID, cmd C) uint64 {
	seq := e.maxSeen[client] + 1
	e.accept(client, seq, cmd)
	return seq
}

// accept records a deduplicated submission.
//
//holint:hotpath
func (e *Engine[C]) accept(client ClientID, seq uint64, cmd C) {
	e.maxSeen[client] = seq
	e.table = append(e.table, entry[C]{client: client, seq: seq, cmd: cmd, submitted: e.stats.WallRounds})
	e.pending = append(e.pending, len(e.table)-1)
}

// Pending counts accepted-but-uncommitted commands.
func (e *Engine[C]) Pending() int { return len(e.pending) }

// Stats returns a copy of the cumulative counters.
func (e *Engine[C]) Stats() Stats { return e.stats }

// Latencies returns the commit latency, in wall rounds, of every committed
// command in commit order. The slice is a copy.
func (e *Engine[C]) Latencies() []core.Round {
	out := make([]core.Round, len(e.latencies))
	copy(out, e.latencies)
	return out
}

// AppliedSeq returns the highest sequence number applied for a client.
func (e *Engine[C]) AppliedSeq(client ClientID) uint64 { return e.applied[client] }

// slotResult is the outcome of one in-flight consensus instance.
type slotResult struct {
	mask   core.Value
	rounds core.Round
}

// DecideWindow runs one pipelined window: up to Pipeline consensus
// instances over disjoint chunks of the pending queue (one empty-batch
// slot if nothing is pending), applied in slot order. It returns the
// number of commands committed.
//
// If a slot fails (budget exhausted or a safety violation), the slots
// before it in the window are committed, the failed slot and every later
// in-flight slot are discarded as speculative — their commands stay
// pending in submission order — and the error (wrapping ErrSlotUndecided
// for budget exhaustion) is returned.
func (e *Engine[C]) DecideWindow() (int, error) {
	return e.decideWindow(e.cfg.Pipeline)
}

// DecideWindowCapped is DecideWindow with the window's in-flight slot
// count additionally capped at maxSlots ≥ 1. Callers that spread a global
// launch budget across several engines (the sharded layer) clamp each
// group's window with it.
func (e *Engine[C]) DecideWindowCapped(maxSlots int) (int, error) {
	if maxSlots < 1 {
		return 0, fmt.Errorf("rsm: window cap %d, need ≥ 1", maxSlots)
	}
	return e.decideWindow(maxSlots)
}

// PlannedWindow returns the number of consensus instances the next
// DecideWindowCapped(maxChunks) call would launch given the current
// pending queue — the launch budget a caller must reserve for it. It
// returns 0 when maxChunks < 1.
func (e *Engine[C]) PlannedWindow(maxChunks int) int {
	if maxChunks < 1 {
		return 0
	}
	return e.windowChunks(maxChunks)
}

// windowChunks computes the in-flight slot count of the next window under
// the cap: ⌈pending/BatchSize⌉ (at least one — an empty no-op slot),
// clamped by Pipeline and maxChunks.
func (e *Engine[C]) windowChunks(maxChunks int) int {
	b := e.cfg.BatchSize
	chunks := (len(e.pending) + b - 1) / b
	if chunks == 0 {
		chunks = 1 // an explicit empty batch, like a no-op slot
	}
	if chunks > e.cfg.Pipeline {
		chunks = e.cfg.Pipeline
	}
	if chunks > maxChunks {
		chunks = maxChunks
	}
	return chunks
}

// decideWindow is DecideWindow bounded to at most maxChunks in-flight
// slots (callers with a slot budget clamp the final window with it).
func (e *Engine[C]) decideWindow(maxChunks int) (int, error) {
	b := e.cfg.BatchSize
	chunks := e.windowChunks(maxChunks)

	runs := make([]func() (slotResult, error), chunks)
	chunkLen := make([]int, chunks)
	for i := 0; i < chunks; i++ {
		lo := i * b
		hi := lo + b
		if hi > len(e.pending) {
			hi = len(e.pending)
		}
		chunkLen[i] = hi - lo
		var mask core.Value
		if n := hi - lo; n > 0 {
			mask = core.Value(1)<<uint(n) - 1
		}
		slot := e.stats.Launched + i // launch number; == slot number when nothing has failed
		prov := e.cfg.Provider(slot) // sequential, in launch order
		initial := make([]core.Value, e.cfg.N)
		for p := range initial {
			initial[p] = mask
		}
		// A failed slot still reports its rounds (it burned them before
		// giving up), so WallRounds accounts for failed windows too.
		runs[i] = func() (slotResult, error) {
			ru, err := core.NewRunner(e.cfg.Algorithm, initial, prov)
			if err != nil {
				return slotResult{}, err
			}
			tr, rerr := ru.Run(e.cfg.MaxRounds)
			if rerr != nil {
				return slotResult{rounds: tr.NumRounds()}, fmt.Errorf("slot %d: %w", slot, ErrSlotUndecided)
			}
			if serr := tr.CheckConsensusSafety(); serr != nil {
				return slotResult{rounds: tr.NumRounds()}, fmt.Errorf("slot %d: %w", slot, serr)
			}
			v, verr := tr.AgreedValue()
			if verr != nil {
				return slotResult{rounds: tr.NumRounds()}, fmt.Errorf("slot %d: %w", slot, verr)
			}
			return slotResult{mask: v, rounds: tr.NumRounds()}, nil
		}
	}
	e.stats.Launched += chunks

	// A one-slot window (the unpipelined default) runs inline; only real
	// pipelining pays for the sweep pool's goroutines. Either way the
	// outcomes are folded below in slot order.
	type outcome struct {
		sr  slotResult
		err error
	}
	outs := make([]outcome, chunks)
	if chunks == 1 {
		sr, rerr := runs[0]()
		outs[0] = outcome{sr: sr, err: rerr}
	} else {
		cells := make([]sweep.Cell, chunks)
		for i, run := range runs {
			cells[i] = sweep.Cell{
				Label: fmt.Sprintf("slot=%d", e.stats.Launched-chunks+i),
				Run: func(context.Context) (any, error) {
					sr, rerr := run()
					return outcome{sr: sr, err: rerr}, nil
				},
			}
		}
		results, _ := e.eng.Run(context.Background(), cells)
		for i, res := range results {
			if res.Err != nil { // a cell panic; cells themselves never error
				outs[i] = outcome{err: res.Err}
			} else {
				outs[i] = res.Value.(outcome)
			}
		}
	}

	committed := 0
	removed := make([]bool, len(e.pending))
	var windowWall core.Round // max rounds over the slots processed so far
	var err error
	for i, out := range outs {
		if out.sr.rounds > windowWall {
			windowWall = out.sr.rounds
		}
		if out.err != nil {
			e.stats.Aborted += chunks - i
			err = out.err
			break
		}
		sr := out.sr
		// In-order apply: slot i cannot apply before slots < i, so its
		// commands commit at the running max of the window's rounds.
		n, cerr := e.commitSlot(i*b, chunkLen[i], sr, removed, e.stats.WallRounds+windowWall)
		if cerr != nil {
			e.stats.Aborted += chunks - i
			err = cerr
			break
		}
		committed += n
		e.stats.Slots++
		e.stats.TotalRounds += sr.rounds
	}
	e.stats.WallRounds += windowWall

	// Compact the pending queue, preserving submission order.
	keep := e.pending[:0]
	for i, idx := range e.pending {
		if !removed[i] {
			keep = append(keep, idx)
		}
	}
	e.pending = keep
	return committed, err
}

// commitSlot applies the commands a slot's decided mask selected from its
// chunk of the pending queue.
//
//holint:hotpath
func (e *Engine[C]) commitSlot(lo, n int, sr slotResult, removed []bool, at core.Round) (int, error) {
	if sr.mask < 0 || (n < MaxBatch && sr.mask >= core.Value(1)<<uint(n)) {
		return 0, e.badMask(sr, n)
	}
	count := 0
	for i := 0; i < n; i++ {
		if sr.mask&(core.Value(1)<<uint(i)) == 0 {
			continue
		}
		pos := lo + i
		ent := e.table[e.pending[pos]]
		removed[pos] = true
		for r := 0; r < e.cfg.N; r++ {
			e.apply(r, ent.cmd)
		}
		if ent.seq > e.applied[ent.client] {
			e.applied[ent.client] = ent.seq
		}
		e.latencies = append(e.latencies, at-ent.submitted)
		e.stats.Committed++
		count++
	}
	return count, nil
}

// badMask formats the out-of-chunk decided-mask error — outlined from
// commitSlot so the commit loop's steady state stays allocation-free.
// noinline keeps the compiler from folding the fmt.Errorf argument
// boxing back into the annotated caller.
//
//go:noinline
func (e *Engine[C]) badMask(sr slotResult, n int) error {
	return fmt.Errorf("rsm: slot %d decided mask %#x outside its %d-command chunk", e.stats.Slots, sr.mask, n)
}

// Drain decides windows until nothing is pending or maxSlots consensus
// instances have been launched in this call (the final window is clamped
// to the remaining budget, so maxSlots is a hard bound). It returns the
// number of commands committed. Every undecided path — a failed slot as
// well as an exhausted slot budget with commands still pending —
// satisfies errors.Is(err, ErrSlotUndecided).
func (e *Engine[C]) Drain(maxSlots int) (int, error) {
	total := 0
	launched := 0
	for launched < maxSlots && len(e.pending) > 0 {
		before := e.stats.Launched
		n, err := e.decideWindow(maxSlots - launched)
		total += n
		launched += e.stats.Launched - before
		if err != nil {
			return total, err
		}
	}
	if len(e.pending) > 0 {
		return total, fmt.Errorf("rsm: %d commands still pending after %d slots: %w",
			len(e.pending), launched, ErrSlotUndecided)
	}
	return total, nil
}
