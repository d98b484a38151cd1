package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"heardof/internal/xrand"
)

// Load sizing, fixed for every live workload and recorded in the output.
const (
	inProcClients = 16
	keysPerClient = 64
	valueBytes    = 32
	putFraction   = 0.5
	opDeadline    = 2 * time.Second
	warmUp        = 2 * time.Second
	subWindow     = time.Second
)

// subWindowsOf is how many equal sub-windows a measuring window is cut
// into: one per second, and at least three. Every windowed metric is the
// median over them, so a stall of the machine (this is built for a shared
// host) has to cover half the window before it moves a number.
func subWindowsOf(window time.Duration) int {
	return max(3, int(window/subWindow))
}

// service is the replicated KV store as a client sees it, through the
// node the client is pinned to.
type service interface {
	put(ctx context.Context, c *client, key, value string) error
	get(ctx context.Context, c *client, key string) (value string, found bool, err error)
}

// opStream is one client's generated input: which private key each
// operation touches and whether the mix asks for a PUT. It is a pure
// function of (seed, client), so the same seed replays the same stream
// whatever the system under test answers.
type opStream struct {
	rng     *xrand.Rand
	putFrac float64
}

func newOpStream(seed uint64, client int, putFrac float64) *opStream {
	return &opStream{rng: xrand.New(seed + uint64(client)*0x9e3779b97f4a7c15), putFrac: putFrac}
}

// next draws the next operation.
func (s *opStream) next() (key int, put bool) {
	key = s.rng.Intn(keysPerClient)
	return key, s.rng.Bool(s.putFrac)
}

// opRec is one committed operation: when it completed (ns since the
// loader's epoch) and how long the client waited for it.
type opRec struct {
	done int64
	lat  int64
}

// client is one closed-loop logical client: single writer of its own
// keys, so every GET has exactly one legal answer — the value of its last
// committed PUT.
type client struct {
	id, node int
	stream   *opStream
	keys     []string
	// last holds each key's last committed value; "" un-pins the key (never
	// written, or its last PUT failed client-side and may or may not have
	// committed), which turns the next operation on it into a PUT.
	last   []string
	writes uint64

	recs       []opRec
	attempted  int
	failed     int
	violations []string
}

func newClient(id, node int, seed uint64, putFrac float64) *client {
	c := &client{id: id, node: node, stream: newOpStream(seed, id, putFrac),
		keys: make([]string, keysPerClient), last: make([]string, keysPerClient)}
	for k := range c.keys {
		c.keys[k] = fmt.Sprintf("c%d-k%d", id, k)
	}
	return c
}

// step issues one operation and checks its answer.
func (c *client) step(parent context.Context, svc service, epoch time.Time) {
	k, put := c.stream.next()
	put = put || c.last[k] == ""
	c.attempted++
	ctx, cancel := context.WithTimeout(parent, opDeadline)
	defer cancel()
	start := time.Now()
	if put {
		c.writes++
		val := fmt.Sprintf("c%03d.k%03d.%0*d", c.id, k, valueBytes-10, c.writes)
		if err := svc.put(ctx, c, c.keys[k], val); err != nil {
			c.failed++
			c.last[k] = ""
			return
		}
		c.last[k] = val
	} else {
		got, found, err := svc.get(ctx, c, c.keys[k])
		if err != nil {
			c.failed++
			return
		}
		c.check(k, got, found)
	}
	end := time.Now()
	c.recs = append(c.recs, opRec{done: int64(end.Sub(epoch)), lat: int64(end.Sub(start))})
}

// check is the single-writer linearizability check of one GET.
func (c *client) check(k int, got string, found bool) {
	if want := c.last[k]; !found || got != want {
		c.violations = append(c.violations, fmt.Sprintf(
			"client %d key %s read %q (found=%v), last committed write was %q", c.id, c.keys[k], got, found, want))
	}
}

// loader drives a fixed population of closed-loop clients, client c
// pinned to node c mod nodes.
type loader struct {
	svc     service
	clients []*client
	epoch   time.Time

	stop   atomic.Bool
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newLoader(svc service, nClients, nodes int, seed uint64, putFrac float64) *loader {
	l := &loader{svc: svc, epoch: time.Now()}
	for c := 0; c < nClients; c++ {
		l.clients = append(l.clients, newClient(c, c%nodes, seed, putFrac))
	}
	return l
}

// start launches the clients; each runs until halt, or for opsEach
// operations when opsEach > 0.
func (l *loader) start(opsEach int) {
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	for _, c := range l.clients {
		l.wg.Add(1)
		go func(c *client) {
			defer l.wg.Done()
			for i := 0; (opsEach == 0 || i < opsEach) && !l.stop.Load(); i++ {
				c.step(ctx, l.svc, l.epoch)
			}
		}(c)
	}
}

// wait blocks until every client has finished its fixed op count.
func (l *loader) wait() {
	l.wg.Wait()
	l.cancel()
}

// halt stops the clients after their in-flight operation.
func (l *loader) halt() {
	l.stop.Store(true)
	l.wait()
}

// tally sums the clients' counters. Failed and late operations stay in
// attempted: they are the numerator of failed_frac, never dropped.
func (l *loader) tally() (attempted, failed int, violations []string) {
	for _, c := range l.clients {
		attempted += c.attempted
		failed += c.failed
		violations = append(violations, c.violations...)
	}
	return attempted, failed, violations
}

// boundary is one edge of a measuring window: the instant, and the CPU
// time every involved process had used by then.
type boundary struct {
	at  int64 // ns since the loader's epoch
	cpu cpuTime
}

// measure lets the load warm up, then cuts `window` into subWindowsOf
// equal parts and samples the clock and cpu at each edge.
func (l *loader) measure(warm, window time.Duration, cpu func() cpuTime) []boundary {
	time.Sleep(warm)
	n := subWindowsOf(window)
	edges := make([]boundary, 0, n+1)
	for i := 0; ; i++ {
		edges = append(edges, boundary{at: int64(time.Since(l.epoch)), cpu: cpu()})
		if i == n {
			return edges
		}
		time.Sleep(window / time.Duration(n))
	}
}

// windowed is a live workload's windowed metrics: each (but the p99,
// which takes the whole window to have samples beyond it) is computed
// per sub-window and reported as the median sub-window, with the
// sub-windows' interquartile range over their median kept as its spread.
type windowed struct {
	opsPerS, p50ms, p99ms, cpuMsPerOp float64
	spread                            map[string]float64
	sysMsPerOp                        float64 // kernel-mode CPU ÷ ops, whole window
	samples                           int     // committed ops in the whole window
	beyondP99                         int     // samples beyond the p99 rank
}

// windowStats attributes every committed operation to the sub-window it
// completed in.
func (l *loader) windowStats(edges []boundary) windowed {
	n := len(edges) - 1
	lats := make([][]int64, n)
	for _, c := range l.clients {
		for _, r := range c.recs {
			for w := 0; w < n; w++ {
				if r.done >= edges[w].at && r.done < edges[w+1].at {
					lats[w] = append(lats[w], r.lat)
					break
				}
			}
		}
	}
	var ops, p50, cpu []float64
	var all []int64
	out := windowed{spread: make(map[string]float64)}
	for w := 0; w < n; w++ {
		s := sortedCopy(lats[w])
		secs := float64(edges[w+1].at-edges[w].at) / 1e9
		all = append(all, s...)
		ops = append(ops, float64(len(s))/secs)
		p50 = append(p50, float64(percentile(s, 0.50))/1e6)
		cpu = append(cpu, ratio(float64(edges[w+1].cpu.user-edges[w].cpu.user)/1e6, float64(len(s))))
	}
	out.opsPerS, out.p50ms, out.cpuMsPerOp = medianOf(ops), medianOf(p50), medianOf(cpu)
	out.samples, out.beyondP99 = len(all), len(all)/100
	out.p99ms = float64(quantile(all, 0.99)) / 1e6
	out.sysMsPerOp = ratio(float64(edges[n].cpu.sys-edges[0].cpu.sys)/1e6, float64(out.samples))
	out.spread["ops_per_s"] = spreadOf(ops)
	out.spread["op_p50_ms"] = spreadOf(p50)
	out.spread["cpu_ms_per_op"] = spreadOf(cpu)
	return out
}

// setupOpsEach is how many operations each client commits before a fresh
// deployment counts as set up.
const setupOpsEach = 4

// coldStart is what a set-up waits for after starting a deployment: one
// commit through every node, then setupOpsEach operations per client of
// the standard load. A single commit takes a handful of goroutine wake-ups
// and times the scheduler more than the system; the short burst makes the
// set-up a (small) piece of real service.
func coldStart(svc service, clients, nodes int, seed uint64, tag string) error {
	if err := firstCommit(svc, nodes, tag); err != nil {
		return err
	}
	l := newLoader(svc, clients, nodes, seed, putFraction)
	l.start(setupOpsEach)
	l.wait()
	if attempted, failed, violations := l.tally(); failed > 0 || len(violations) > 0 {
		return fmt.Errorf("cold start: %d of %d ops failed, %d stale reads", failed, attempted, len(violations))
	}
	return nil
}

// firstCommit commits one PUT through every node and reads it back: the
// moment a freshly started (or recovered) service is serving on all of
// its nodes.
func firstCommit(svc service, nodes int, tag string) error {
	for p := 0; p < nodes; p++ {
		c := &client{id: inProcClients + p, node: p}
		key, val := fmt.Sprintf("first-%s-%d", tag, p), fmt.Sprintf("up-%d", p)
		ctx, cancel := context.WithTimeout(context.Background(), 5*opDeadline)
		err := svc.put(ctx, c, key, val)
		var got string
		var found bool
		if err == nil {
			got, found, err = svc.get(ctx, c, key)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("first commit through node %d: %w", p, err)
		}
		if !found || got != val {
			return fmt.Errorf("first commit through node %d read back %q (found=%v), wrote %q", p, got, found, val)
		}
	}
	return nil
}
