package predimpl

import (
	"errors"
	"fmt"

	"heardof/internal/core"
	"heardof/internal/simtime"
	"heardof/internal/stable"
)

// ProtoKind selects which predicate-implementation algorithm a stack runs.
type ProtoKind int

const (
	// UseAlg2 runs Algorithm 2 (π0-down good periods → P_su).
	UseAlg2 ProtoKind = iota + 1
	// UseAlg3 runs Algorithm 3 (π0-arbitrary good periods → P_k).
	UseAlg3
)

// String implements fmt.Stringer.
func (k ProtoKind) String() string {
	switch k {
	case UseAlg2:
		return "Alg2"
	case UseAlg3:
		return "Alg3"
	default:
		return fmt.Sprintf("ProtoKind(%d)", int(k))
	}
}

// StackConfig assembles a full two-layer system (Figure 1): an HO
// algorithm on top of Algorithm 2 or 3 on top of the simtime system model.
type StackConfig struct {
	Kind      ProtoKind
	F         int // Algorithm 3 resilience parameter (ignored by Alg2)
	Algorithm core.Algorithm
	Initial   []core.Value
	Sim       simtime.Config
	// Ablation, if non-nil, disables individual design choices (see the
	// Ablation type); nil runs the paper-faithful algorithms.
	Ablation *Ablation
}

// Stack is a built system ready to run.
type Stack struct {
	Sim      *simtime.Sim
	Recorder *Recorder
	Stores   *stable.Registry
	Protos   []simtime.Proto
	Initial  []core.Value
	insts    []core.Instance
}

// BuildStack wires the three layers together.
func BuildStack(cfg StackConfig) (*Stack, error) {
	n := cfg.Sim.N
	if len(cfg.Initial) != n {
		return nil, fmt.Errorf("got %d initial values for %d processes", len(cfg.Initial), n)
	}
	if cfg.Algorithm == nil {
		return nil, errors.New("nil HO algorithm")
	}
	if cfg.Kind == UseAlg3 && 2*cfg.F >= n {
		return nil, fmt.Errorf("Algorithm 3 requires f < n/2, got f=%d n=%d", cfg.F, n)
	}

	rec := NewRecorder(n)
	stores := stable.NewRegistry()
	protos := make([]simtime.Proto, n)
	insts := make([]core.Instance, n)

	sim, err := simtime.New(cfg.Sim, func(p core.ProcessID) simtime.Proto {
		inst := cfg.Algorithm.NewInstance(p, n, cfg.Initial[p])
		insts[p] = inst
		var proto simtime.Proto
		switch cfg.Kind {
		case UseAlg3:
			a3 := NewAlg3(p, n, cfg.F, cfg.Sim.Phi, cfg.Sim.Delta, inst, stores.For(int(p)), rec)
			cfg.Ablation.apply3(a3)
			proto = a3
		default:
			a2 := NewAlg2(p, n, cfg.Sim.Phi, cfg.Sim.Delta, inst, stores.For(int(p)), rec)
			cfg.Ablation.apply2(a2)
			proto = a2
		}
		protos[p] = proto
		return proto
	})
	if err != nil {
		return nil, err
	}
	initial := make([]core.Value, n)
	copy(initial, cfg.Initial)
	return &Stack{Sim: sim, Recorder: rec, Stores: stores, Protos: protos, Initial: initial, insts: insts}, nil
}

// Instance returns the HO-layer instance of process p.
func (s *Stack) Instance(p core.ProcessID) core.Instance { return s.insts[p] }

// Trace converts the recorded history to a core.Trace for predicate
// checking.
func (s *Stack) Trace() *core.Trace { return s.Recorder.ToTrace(s.Initial) }

// RunUntilAllDecided advances the simulation until every member of
// `members` has decided at the HO layer, or the horizon passes. It returns
// the time of the last decision, or -1 on timeout.
func (s *Stack) RunUntilAllDecided(members core.PIDSet, horizon simtime.Time) simtime.Time {
	ok := s.Sim.RunUntil(func() bool { return s.Recorder.AllDecided(members) }, horizon)
	if !ok {
		return -1
	}
	return s.Recorder.LastDecisionTime(members)
}
