package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"heardof/internal/livekv"
	"heardof/internal/wal"
)

// live_recover: the WAL read the other way round. A cluster is populated
// with a fixed number of PUTs into unsnapshotted, unfsynced logs and
// closed without a checkpoint; then the whole cluster is cold-restarted
// from those directories, again and again.

const (
	populatePuts  = 100_000
	burstOpsEach  = 100 // ops per client on each recovered cluster
	minRecoveries = 3
)

func recoverConfig(dataDir string) livekv.Config {
	cfg := liveSpec{}.config(dataDir)
	cfg.NoFsync = true
	cfg.SnapshotEvery = -1
	return cfg
}

// populated is the state every restart begins from.
type populated struct {
	dir    string
	files  map[string]int64 // every file of dir with its length at close
	last   [][]string       // per client, per key: the value recovery must serve
	writes []uint64
	took   time.Duration
	puts   int
}

// populate fills a fresh cluster with exactly puts PUTs and closes it
// without a checkpoint, so that a restart has the whole log to replay.
func (e *env) populate(res *passResult, seed uint64, puts int) (*populated, error) {
	dir, err := e.tempDir("recover-base")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cl, err := startCluster(liveSpec{}, recoverConfig(dir), seed)
	if err != nil {
		return nil, err
	}
	l := newLoader(clusterNodes(cl), inProcClients, liveNodes, seed, 1)
	l.start(puts / inProcClients)
	l.wait()
	attempted, failed, _ := l.tally()
	res.Attempted += attempted
	res.Failed += failed
	if err := cl.ConvergedWithin(convergeWait); err != nil {
		res.problem("populate convergence: %v", err)
	}
	cl.Close()
	p := &populated{dir: dir, took: time.Since(t0), puts: attempted - failed}
	if p.files, err = fileSizes(dir); err != nil {
		return nil, err
	}
	for _, c := range l.clients {
		p.last = append(p.last, append([]string(nil), c.last...))
		p.writes = append(p.writes, c.writes)
	}
	if failed > 0 {
		res.problem("populate: %d of %d PUTs failed", failed, attempted)
	}
	return p, nil
}

// runRecover is both passes of live_recover.
func (e *env) runRecover(traced bool, seed uint64, window time.Duration) (*passResult, error) {
	res := newPassResult("live_recover", traced)
	began := time.Now()
	puts := populatePuts
	if e.quick {
		puts /= 5
	}
	puts -= puts % inProcClients
	base, err := e.populate(res, seed, puts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base.dir)
	logBytes := dirBytes(base.dir)
	res.note("populated %d PUTs in %v: %.1f MB of log across %d nodes x %d groups, no snapshot, closed without checkpoint",
		base.puts, base.took.Round(time.Millisecond), float64(logBytes)/1e6, liveNodes, liveGroups)
	if traced {
		return res, e.walOpenProbe(res, base, window)
	}

	// One op of this workload is one cold restart: NewCluster on the
	// populated directories → one PUT committed through every node.
	var restarts, cpus []float64
	for cycle := 0; cycle < minRecoveries || time.Since(began)-base.took < window; cycle++ {
		cpu0, t0 := selfCPU().user, time.Now()
		cl, err := startCluster(liveSpec{}, recoverConfig(base.dir), seed+uint64(cycle))
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", cycle, err)
		}
		nodes := clusterNodes(cl)
		if err := firstCommit(nodes, liveNodes, fmt.Sprint("cycle", cycle)); err != nil {
			res.problem("restart %d: %v", cycle, err)
		}
		restarts = append(restarts, float64(time.Since(t0))/1e6)
		cpus = append(cpus, float64(selfCPU().user-cpu0)/1e6)
		res.Attempted++

		// A short burst of the standard load on the recovered cluster:
		// every GET must return what was populated before the restart.
		l := newLoader(nodes, inProcClients, liveNodes, seed+uint64(cycle), putFraction)
		for i, c := range l.clients {
			copy(c.last, base.last[i])
			c.writes = base.writes[i]
		}
		l.start(burstOpsEach)
		l.wait()
		attempted, failed, violations := l.tally()
		res.Attempted += attempted
		res.Failed += failed
		for _, v := range violations {
			res.problem("restart %d served a value it did not recover: %s", cycle, v)
		}
		if err := cl.ConvergedWithin(convergeWait); err != nil {
			res.problem("restart %d convergence: %v", cycle, err)
		}
		cl.Close()
		// Back to the populated state: the logs are append-only and nothing
		// snapshots, so cutting every file to its populated length (and
		// removing any new one) undoes the cycle exactly, without rewriting
		// the 56 MB a fresh copy would.
		if err := restoreSizes(base.dir, base.files); err != nil {
			return nil, err
		}
	}

	m := res.Metrics
	m["op_p50_ms"] = medianOf(restarts)
	m["ops_per_s"] = ratio(1e3, m["op_p50_ms"])
	m["setup_s"] = base.took.Seconds()
	res.Spread["op_p50_ms"] = spreadOf(restarts)
	res.note("one op is one cold restart of the whole cluster from the populated directories as they were closed: NewCluster to one PUT committed through every node; %d restarts, op_p50_ms their median (min %.0f, max %.0f), ops_per_s its inverse; the median restart used %.0f ms of user CPU",
		len(restarts), slices.Min(restarts), slices.Max(restarts), medianOf(cpus))
	res.note("after every restart %d ops of the standard load per client, reads checked against the populated values; setup_s is the populate", burstOpsEach)
	return res, nil
}

// walOpenProbe times wal.Open alone on one populated group directory:
// the replay share of recovery_ms. Open followed by Close writes nothing
// to an intact log, so the same directory serves every repeat.
func (e *env) walOpenProbe(res *passResult, base *populated, window time.Duration) error {
	dir := filepath.Join(base.dir, "node-0", "group-0")
	size := dirBytes(dir)
	var opens []int64
	began := time.Now()
	for i := 0; i < 3 || time.Since(began) < window/2; i++ {
		t0 := time.Now()
		store, st, err := wal.Open(dir, wal.Options{NoSync: true})
		took := time.Since(t0)
		if err != nil {
			return fmt.Errorf("wal.Open on a populated group: %w", err)
		}
		if len(st.Log) == 0 {
			res.problem("wal.Open replayed an empty log from %d bytes", size)
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing the probed store: %w", err)
		}
		opens = append(opens, int64(took))
	}
	p50 := quantile(opens, 0.50)
	m := res.Metrics
	m["wal.open_ms_p50"] = float64(p50) / 1e6
	m["wal.replay_mb_per_s"] = ratio(float64(size)/1e6, float64(p50)/1e9)
	m["wal.log_bytes"] = float64(size)
	res.note("wal.Open on node-0/group-0 (%d bytes), %d times", size, len(opens))
	return nil
}
