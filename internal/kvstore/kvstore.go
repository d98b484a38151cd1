// Package kvstore builds a replicated key-value store on top of repeated
// consensus in the Heard-Of model — the kind of application the paper's
// introduction motivates (consensus "appears when implementing atomic
// broadcast, group membership, etc.").
//
// There is one assembly, ShardedCluster: S ≥ 1 independent groups of n
// replicas over a partitioned keyspace, and the unsharded store is its
// S = 1 case. The replication mechanics live in internal/rsm (each log
// slot decides a BATCH of commands, up to Pipeline slots run in flight
// per window with in-order apply, submissions ride client sessions with
// exactly-once dedup) and the fan-out over groups in internal/shard.
// This package supplies the KV state machine and the store-shaped API;
// all replicas of a group converge to the same state no matter which
// transmission faults the environment inflicts — provided each slot's
// instance eventually meets its liveness predicate.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"heardof/internal/core"
	"heardof/internal/rsm"
)

// Op is a state machine operation.
type Op int

const (
	// OpPut sets a key.
	OpPut Op = iota + 1
	// OpDelete removes a key.
	OpDelete
	// OpGet reads a key through the replicated log — a linearizable
	// read: it changes no state but occupies a log position, so it is
	// ordered against every write (workload generators use it for the
	// read side of their mix).
	OpGet
)

// Command is one replicated operation.
type Command struct {
	Op    Op
	Key   string
	Value string
}

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c.Op {
	case OpDelete:
		return "del " + c.Key
	case OpGet:
		return "get " + c.Key
	default:
		return "put " + c.Key + "=" + c.Value
	}
}

// StateMachine is the deterministic KV state machine.
type StateMachine struct {
	data map[string]string
	log  []Command
	// restored counts commands applied before the snapshot this machine
	// was restored from; Len reports restored + len(log) so the applied
	// count survives restarts even though the command log itself is not
	// part of the snapshot (the replication layer's durable decision log
	// already owns that history).
	restored int
}

// NewStateMachine returns an empty state machine.
func NewStateMachine() *StateMachine {
	return &StateMachine{data: make(map[string]string)}
}

// Apply executes one command.
func (sm *StateMachine) Apply(cmd Command) {
	switch cmd.Op {
	case OpPut:
		sm.data[cmd.Key] = cmd.Value
	case OpDelete:
		delete(sm.data, cmd.Key)
	}
	sm.log = append(sm.log, cmd)
}

// Get reads a key.
func (sm *StateMachine) Get(key string) (string, bool) {
	v, ok := sm.data[key]
	return v, ok
}

// Len returns the number of applied commands, including those applied
// before a snapshot this machine was restored from.
func (sm *StateMachine) Len() int { return sm.restored + len(sm.log) }

// AppendSnapshot appends a deterministic encoding of the durable state
// — the applied-command count and the key-value map, sorted — to dst.
// The command log is deliberately excluded: it exists for tests and
// debugging, and the replication layer's decision log is the durable
// history.
func (sm *StateMachine) AppendSnapshot(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(sm.Len()))
	keys := make([]string, 0, len(sm.data))
	for k := range sm.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		v := sm.data[k]
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// RestoreSnapshot replaces the machine's state with a snapshot produced
// by AppendSnapshot. An empty input restores the empty machine.
func (sm *StateMachine) RestoreSnapshot(b []byte) error {
	if len(b) == 0 {
		sm.data, sm.log, sm.restored = make(map[string]string), nil, 0
		return nil
	}
	applied, n := binary.Uvarint(b)
	if n <= 0 {
		return errors.New("kvstore: corrupt snapshot: applied count")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return errors.New("kvstore: corrupt snapshot: key count")
	}
	b = b[n:]
	// Allocate-after-validate (holint:allocbound): every entry costs at
	// least two bytes (two uvarint length prefixes), so a count beyond
	// the remaining bytes is corruption — sizing the map from it would
	// let a torn or hostile snapshot buy an arbitrary allocation.
	if count > uint64(len(b)) {
		return errors.New("kvstore: corrupt snapshot: key count exceeds payload")
	}
	data := make(map[string]string, count)
	take := func() (string, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return "", false
		}
		s := string(b[n : n+int(l)])
		b = b[n+int(l):]
		return s, true
	}
	for i := uint64(0); i < count; i++ {
		k, ok1 := take()
		v, ok2 := take()
		if !ok1 || !ok2 {
			return errors.New("kvstore: corrupt snapshot: entry")
		}
		data[k] = v
	}
	if len(b) != 0 {
		return errors.New("kvstore: corrupt snapshot: trailing bytes")
	}
	sm.data, sm.log, sm.restored = data, nil, int(applied)
	return nil
}

// Fingerprint summarizes the state deterministically, for convergence
// checks across replicas.
func (sm *StateMachine) Fingerprint() string {
	keys := make([]string, 0, len(sm.data))
	for k := range sm.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(sm.data[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Replica is one member of the replicated store.
type Replica struct {
	ID core.ProcessID
	SM *StateMachine
}

// ErrSlotUndecided is returned when replication cannot complete within
// its budgets — a slot's consensus instance never decided, or Drain ran
// out of slots with commands still pending. It is rsm's sentinel, so
// errors.Is works across the whole service stack.
var ErrSlotUndecided = rsm.ErrSlotUndecided

// WorkloadCommand maps a generated workload operation (shard.RunWorkload)
// to a KV command: reads become linearizable OpGets through the log,
// writes become puts with an occasional delete. Shared by the E10/E11
// experiments and cmd/hoload so their workloads stay key-for-key
// comparable.
func WorkloadCommand(op rsm.Op) Command {
	key := workloadKey(op.Key)
	switch {
	case !op.Write:
		return Command{Op: OpGet, Key: key}
	case op.Key%11 == 10:
		return Command{Op: OpDelete, Key: key}
	default:
		return Command{Op: OpPut, Key: key, Value: fmt.Sprintf("c%d#%d", op.Client, op.Seq)}
	}
}

// workloadKey names workload key index k; WorkloadCommand and
// WorkloadRouteKey must agree on it so a generated op and the command
// built from it route to the same shard.
func workloadKey(k int) string { return fmt.Sprintf("k%03d", k) }
