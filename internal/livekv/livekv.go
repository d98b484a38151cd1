// Package livekv assembles the live runtime (internal/live) into the
// replicated key-value service the simulator layers already provide in
// simulated time: the kvstore state machine, sharded across Groups
// independent LastVoting replication groups (keys route exactly like
// internal/shard — same FNV string hash, same splitmix64 router), served
// by real server processes over channel or TCP transports.
//
// One Node is one server process's stack: a replica of EVERY group bound
// to a single transport through a live.Mux, plus the per-group state
// machines. Any node can serve any key — reads and writes both travel
// through the replicated log (an OpGet occupies a log position, so it is
// a linearizable read ordered against every write), which is what lets
// cmd/hoload verify read-your-writes linearizability end-to-end over
// HTTP.
//
// The package is the live counterpart of internal/kvstore's Cluster +
// internal/shard's Sharded: the same algorithm (LastVoting by default),
// the same state machine, the same routing — only the implementation
// layer under the rounds changed. DESIGN.md §9 tabulates the mapping.
package livekv

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/shard"
	"heardof/internal/wal"
)

// Config parameterizes every node of one deployment (all nodes must
// agree on it).
type Config struct {
	// Replicas is the number of server processes n (one replica of every
	// group each).
	Replicas int
	// Groups is the number of independent replication groups keys are
	// sharded across (≥ 1).
	Groups int
	// Algorithm decides slots (default lastvoting.Algorithm{}); Msg is
	// its wire codec (default lastvoting.WireCodec{}). Override both
	// together.
	Algorithm core.Algorithm
	Msg       live.Codec
	// RoundTimeout and MaxBatch tune the live replicas; zero values take
	// the live package defaults.
	RoundTimeout time.Duration
	MaxBatch     int
	// OpTimeout bounds one Put/Get when the caller's context has no
	// earlier deadline (default 10s).
	OpTimeout time.Duration
	// DataDir, when non-empty, makes THIS node durable: each group gets
	// a write-ahead log + snapshot store under DataDir/group-<g>, and a
	// node restarted with the same directory recovers its logs, state
	// machines, and session dedup before rejoining. DataDir is per-node
	// local state — it does not have to agree across the deployment.
	DataDir string
	// NoFsync skips the per-dispatch fsync (durable against process
	// crashes only, not machine crashes). SnapshotEvery is the snapshot
	// cadence in applied slots per group (0 = the live default, negative
	// = never).
	NoFsync       bool
	SnapshotEvery int
}

// withDefaults fills the zero values.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Replicas < 1 || cfg.Replicas > core.MaxProcesses {
		return cfg, fmt.Errorf("livekv: %d replicas out of range [1, %d]", cfg.Replicas, core.MaxProcesses)
	}
	if cfg.Groups < 1 {
		return cfg, fmt.Errorf("livekv: %d groups, need ≥ 1", cfg.Groups)
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = lastvoting.Algorithm{}
		cfg.Msg = lastvoting.WireCodec{}
	}
	if cfg.Msg == nil {
		return cfg, errors.New("livekv: Algorithm set without its wire codec")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	return cfg, nil
}

// groupReplica pairs one group's live replica with its state machine
// and, on durable nodes, its write-ahead store.
type groupReplica struct {
	rep   *live.Replica[kvstore.Command]
	store *wal.Store

	mu sync.Mutex
	sm *kvstore.StateMachine
}

// getResult is what the apply hook returns for an OpGet.
type getResult struct {
	value string
	ok    bool
}

// Node is one server process: replicas of every group over one transport.
type Node struct {
	cfg    Config
	self   core.ProcessID
	tr     live.Transport
	mux    *live.Mux
	groups []*groupReplica
	client uint64
}

// NewNode builds process self's stack on tr (which the node owns from
// here on: Close closes it).
func NewNode(cfg Config, self core.ProcessID, tr live.Transport) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= cfg.Replicas {
		return nil, fmt.Errorf("livekv: self %d outside deployment of %d", self, cfg.Replicas)
	}
	nd := &Node{
		cfg:    cfg,
		self:   self,
		tr:     tr,
		mux:    live.NewMux(tr),
		groups: make([]*groupReplica, cfg.Groups),
		client: uint64(self) + 1,
	}
	for g := range nd.groups {
		gr := &groupReplica{sm: kvstore.NewStateMachine()}
		rcfg := live.ReplicaConfig[kvstore.Command]{
			Self:      self,
			N:         cfg.Replicas,
			Algorithm: cfg.Algorithm,
			Msg:       cfg.Msg,
			Batch:     cmdCodec{},
			Transport: nd.mux.Link(uint32(g), 0),
			Apply: func(_ uint64, e live.Entry[kvstore.Command]) any {
				gr.mu.Lock()
				defer gr.mu.Unlock()
				gr.sm.Apply(e.Cmd)
				if e.Cmd.Op == kvstore.OpGet {
					v, ok := gr.sm.Get(e.Cmd.Key)
					return getResult{value: v, ok: ok}
				}
				return nil
			},
			RoundTimeout: cfg.RoundTimeout,
			MaxBatch:     cfg.MaxBatch,
		}
		if cfg.DataDir != "" {
			store, st, err := wal.Open(
				filepath.Join(cfg.DataDir, fmt.Sprintf("group-%d", g)),
				wal.Options{NoSync: cfg.NoFsync})
			if err != nil {
				nd.closeStores()
				return nil, fmt.Errorf("livekv: group %d store: %w", g, err)
			}
			if err := gr.sm.RestoreSnapshot(st.AppState); err != nil {
				store.Close()
				nd.closeStores()
				return nil, fmt.Errorf("livekv: group %d snapshot: %w", g, err)
			}
			gr.store = store
			rcfg.Persist = store
			rcfg.Recovered = st
			rcfg.SnapshotEvery = cfg.SnapshotEvery
			rcfg.SnapshotState = func() []byte {
				gr.mu.Lock()
				defer gr.mu.Unlock()
				return gr.sm.AppendSnapshot(nil)
			}
		}
		rep, err := live.NewReplica(rcfg)
		if err != nil {
			if gr.store != nil {
				gr.store.Close()
			}
			nd.closeStores()
			return nil, err
		}
		gr.rep = rep
		nd.groups[g] = gr
	}
	return nd, nil
}

// closeStores releases the stores of already-built groups after a
// constructor failure.
func (nd *Node) closeStores() {
	for _, gr := range nd.groups {
		if gr != nil && gr.store != nil {
			gr.store.Close()
		}
	}
}

// Start begins participating in every group.
func (nd *Node) Start() {
	for _, g := range nd.groups {
		g.rep.Start()
	}
}

// Checkpoint snapshots every durable group (state machine included)
// and truncates its log — the graceful-shutdown path, so the next start
// replays nothing. A no-op on volatile nodes.
func (nd *Node) Checkpoint() error {
	var first error
	for g, gr := range nd.groups {
		if err := gr.rep.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("livekv: group %d checkpoint: %w", g, err)
		}
	}
	return first
}

// Close stops every replica, closes the transport, and releases any
// write-ahead stores.
func (nd *Node) Close() error {
	for _, g := range nd.groups {
		g.rep.Stop()
	}
	err := nd.tr.Close()
	for _, g := range nd.groups {
		if g.store != nil {
			if cerr := g.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// GroupFor returns the group owning a key — identical routing to
// internal/shard, so a simulated and a live deployment with the same
// Groups place every key identically.
func (nd *Node) GroupFor(key string) int {
	return shard.HashRouter{}.Shard(shard.StringKey(key), nd.cfg.Groups)
}

// do replicates one command through its owning group and waits for the
// apply, bounding the wait with OpTimeout when ctx has no deadline.
func (nd *Node) do(ctx context.Context, cmd kvstore.Command) (live.ApplyResult, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, nd.cfg.OpTimeout)
		defer cancel()
	}
	g := nd.groups[nd.GroupFor(cmd.Key)]
	ch, _ := g.rep.SubmitNext(nd.client, cmd)
	select {
	case res, ok := <-ch:
		if !ok {
			return res, errors.New("livekv: node stopped before the command committed")
		}
		return res, nil
	case <-ctx.Done():
		return live.ApplyResult{}, fmt.Errorf("livekv: %v %q did not commit in time: %w", cmd.Op, cmd.Key, ctx.Err())
	}
}

// Put replicates a write and returns once it is applied.
func (nd *Node) Put(ctx context.Context, key, value string) error {
	_, err := nd.do(ctx, kvstore.Command{Op: kvstore.OpPut, Key: key, Value: value})
	return err
}

// Delete replicates a deletion.
func (nd *Node) Delete(ctx context.Context, key string) error {
	_, err := nd.do(ctx, kvstore.Command{Op: kvstore.OpDelete, Key: key})
	return err
}

// Get performs a linearizable read: the OpGet rides the replicated log,
// so the value returned is the key's state at the read's log position.
func (nd *Node) Get(ctx context.Context, key string) (string, bool, error) {
	res, err := nd.do(ctx, kvstore.Command{Op: kvstore.OpGet, Key: key})
	if err != nil {
		return "", false, err
	}
	gr, ok := res.Out.(getResult)
	if !ok {
		return "", false, fmt.Errorf("livekv: read of %q produced no result (duplicate submission?)", key)
	}
	return gr.value, gr.ok, nil
}

// GroupStatus is one group's health on one node.
type GroupStatus struct {
	Group       int
	Stats       live.ReplicaStats
	LogLen      uint64
	LogHash     uint64
	Fingerprint string
	Applied     int   // commands applied to the state machine
	Err         error // the durability failure that halted the group, if any
}

// Status reports every group's replica counters, decision-log
// fingerprint, and state-machine fingerprint — what /stats serves and
// what the smoke jobs compare across nodes for divergence.
func (nd *Node) Status() []GroupStatus {
	out := make([]GroupStatus, len(nd.groups))
	for g, gr := range nd.groups {
		gr.mu.Lock()
		fp := gr.sm.Fingerprint()
		applied := gr.sm.Len()
		gr.mu.Unlock()
		logLen, logHash := gr.rep.LogHash()
		out[g] = GroupStatus{
			Group:       g,
			Stats:       gr.rep.Stats(),
			LogLen:      logLen,
			LogHash:     logHash,
			Fingerprint: fp,
			Applied:     applied,
			Err:         gr.rep.Err(),
		}
	}
	return out
}

// Err names the first group whose replica a durability failure halted, or
// returns nil while every group runs. It reads no state-machine contents,
// so a health probe can call it on every request.
func (nd *Node) Err() error {
	for g, gr := range nd.groups {
		if err := gr.rep.Err(); err != nil {
			return fmt.Errorf("group %d halted: %w", g, err)
		}
	}
	return nil
}

// Self returns this node's process id.
func (nd *Node) Self() core.ProcessID { return nd.self }

// Replica exposes group g's live replica (tests).
func (nd *Node) Replica(g int) *live.Replica[kvstore.Command] { return nd.groups[g].rep }
