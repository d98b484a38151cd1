package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
	"heardof/internal/livekv"
)

// http_tcp3: three real hoserve processes on loopback, driven over HTTP.

// buildHoserve compiles cmd/hoserve of the measured module into the build
// directory and returns the binary and how long the build took.
func (e *env) buildHoserve() (string, float64, error) {
	bin, err := filepath.Abs(filepath.Join(e.buildDir(), "hoserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "heardof/cmd/hoserve")
	cmd.Dir = e.modDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building hoserve: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// listenLoopback binds n ephemeral loopback ports.
func listenLoopback(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := live.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// addrSniffer is a child's stderr: it keeps the output (for error
// reports) and announces the HTTP address hoserve logs once it serves.
type addrSniffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered(1): written once
	sent bool
}

const servingPrefix = "hoserve: serving HTTP on "

func (s *addrSniffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf.Write(p)
	addr := ""
	if !s.sent {
		out := s.buf.String()
		if i := strings.Index(out, servingPrefix); i >= 0 {
			if j := strings.IndexByte(out[i:], '\n'); j >= 0 {
				s.sent = true
				addr = strings.TrimSpace(out[i+len(servingPrefix) : i+j])
			}
		}
	}
	s.mu.Unlock()
	if addr != "" {
		s.addr <- addr // buffered(1) and sent once: cannot block
	}
	return len(p), nil
}

func (s *addrSniffer) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// hoserveProc is one running hoserve child.
type hoserveProc struct {
	cmd    *exec.Cmd
	stderr *addrSniffer
	http   string
	exited chan struct{} // closed once cmd.Wait has returned
}

// stop ends the child (SIGTERM, then SIGKILL after a grace period) and
// waits until it has been reaped.
func (p *hoserveProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// deployment is the three-process cluster plus the HTTP client side.
type deployment struct {
	procs  []*hoserveProc
	client *http.Client
}

// launch starts liveNodes hoserve processes on ephemeral loopback ports,
// retrying with fresh ports when one fails to come up (the consensus
// ports are picked by binding and releasing them, which can race).
func launch(bin string, conns int) (*deployment, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launchOnce(bin, conns)
		if err == nil {
			return d, nil
		}
		last = err
	}
	return nil, last
}

func launchOnce(bin string, conns int) (*deployment, error) {
	lns, err := listenLoopback(liveNodes)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, liveNodes)
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	d := &deployment{client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns * liveNodes, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}}}
	for i := 0; i < liveNodes; i++ {
		p := &hoserveProc{stderr: &addrSniffer{addr: make(chan string, 1)}, exited: make(chan struct{})}
		p.cmd = exec.Command(bin, "-id", fmt.Sprint(i), "-nodes", strings.Join(addrs, ","), "-http", "127.0.0.1:0",
			"-groups", fmt.Sprint(liveGroups), "-timeout", roundTimeout.String(), "-batch", fmt.Sprint(maxBatch),
			"-optimeout", opDeadline.String())
		p.cmd.Stderr = p.stderr
		// Should hoperf itself be killed, the servers must not outlive it.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			d.stop()
			return nil, err
		}
		go func() {
			p.cmd.Wait() // the exit status of a child we signal ourselves carries nothing
			close(p.exited)
		}()
		d.procs = append(d.procs, p)
	}
	for i, p := range d.procs {
		select {
		case p.http = <-p.stderr.addr:
		case <-p.exited:
			d.stop()
			return nil, fmt.Errorf("hoserve %d exited during start-up:\n%s", i, p.stderr.output())
		case <-time.After(10 * time.Second):
			d.stop()
			return nil, fmt.Errorf("hoserve %d did not start serving within 10s:\n%s", i, p.stderr.output())
		}
	}
	return d, nil
}

// stop ends every child and waits for each to be reaped.
func (d *deployment) stop() {
	for _, p := range d.procs {
		p.stop()
	}
	d.client.CloseIdleConnections()
}

// cpu is the CPU time of every process involved: loader plus servers.
func (d *deployment) cpu() cpuTime { return selfCPU().plus(d.serverCPU()) }

func (d *deployment) serverCPU() cpuTime {
	var total cpuTime
	for _, p := range d.procs {
		total = total.plus(procCPU(p.cmd.Process.Pid))
	}
	return total
}

func (d *deployment) url(node int, path string) string {
	return "http://" + d.procs[node].http + path
}

// put implements service over HTTP: 200 means committed.
func (d *deployment) put(ctx context.Context, c *client, key, value string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, d.url(c.node, "/kv/"+key), strings.NewReader(value))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %s", key, resp.Status)
	}
	return nil
}

// get implements service over HTTP; 404 is "not found", not an error.
func (d *deployment) get(ctx context.Context, c *client, key string) (string, bool, error) {
	body, status, err := d.fetch(ctx, d.url(c.node, "/kv/"+key))
	switch {
	case err != nil:
		return "", false, err
	case status == http.StatusOK:
		return body, true, nil
	case status == http.StatusNotFound:
		return "", false, nil
	default:
		return "", false, fmt.Errorf("GET %s: status %d", key, status)
	}
}

func (d *deployment) fetch(ctx context.Context, url string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return string(body), resp.StatusCode, err
}

// statuses reads every node's /stats.
func (d *deployment) statuses() ([][]groupStatus, error) {
	out := make([][]groupStatus, len(d.procs))
	for p := range d.procs {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		body, status, err := d.fetch(ctx, d.url(p, "/stats"))
		cancel()
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("node %d /stats: status %d: %v", p, status, err)
		}
		groups, err := parseStats(body)
		if err != nil {
			return nil, fmt.Errorf("node %d /stats: %w", p, err)
		}
		out[p] = groups
	}
	return out, nil
}

// parseStats reads hoserve's /stats lines (cmd/hoserve writeStats).
func parseStats(body string) ([]groupStatus, error) {
	var out []groupStatus
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var node, group, applied, pending, batches int
		var stateHash uint64
		var st groupStatus
		_, err := fmt.Sscanf(line, "node %d group %d slots=%d log=%v state=%v applied=%d committed=%d divergent=%d sync=%d pending=%d batches=%d",
			&node, &group, &st.slots, &st.logHash, &stateHash, &applied, &st.committed, &st.divergent, &st.syncDecisions, &pending, &batches)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		st.state = fmt.Sprint(stateHash)
		out = append(out, st)
	}
	return out, nil
}

// httpFloor is the median GET /healthz on a warm connection: what HTTP
// and the process boundary cost before any replication happens.
func (d *deployment) httpFloor() float64 {
	var samples []int64
	for i := 0; i < 300; i++ {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		_, _, err := d.fetch(ctx, d.url(0, "/healthz"))
		cancel()
		if err == nil && i >= 20 {
			samples = append(samples, int64(time.Since(start)))
		}
	}
	return float64(quantile(samples, 0.50)) / 1e3
}

// nodesService is in-process livekv nodes behind the loader's interface.
type nodesService []*livekv.Node

func (s nodesService) put(ctx context.Context, c *client, key, value string) error {
	return s[c.node].Put(ctx, key, value)
}

func (s nodesService) get(ctx context.Context, c *client, key string) (string, bool, error) {
	return s[c.node].Get(ctx, key)
}

func clusterNodes(cl *livekv.Cluster) nodesService {
	nodes := make(nodesService, cl.N())
	for p := range nodes {
		nodes[p] = cl.Node(p)
	}
	return nodes
}

// tcpTransports builds liveNodes live.NewTCP endpoints on loopback.
func tcpTransports() ([]live.Transport, error) {
	lns, err := listenLoopback(liveNodes)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, liveNodes)
	for p, ln := range lns {
		addrs[p] = ln.Addr().String()
	}
	out := make([]live.Transport, 0, liveNodes)
	for p, ln := range lns {
		t, err := live.NewTCP(core.ProcessID(p), ln, addrs)
		if err != nil {
			for _, made := range out {
				made.Close()
			}
			for _, rest := range lns[p:] {
				rest.Close()
			}
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// tcpNodes is the untraced in-process reference for the TCP twin: three
// livekv.NewNode stacks on live.NewTCP, assembled as hoserve does.
func tcpNodes(seed uint64) (nodesService, func(), error) {
	trs, err := tcpTransports()
	if err != nil {
		return nil, nil, err
	}
	var nodes nodesService
	closeAll := func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs[len(nodes):] {
			tr.Close()
		}
	}
	for p, tr := range trs {
		f := live.NewFaults(seed + uint64(p)*0x9e3779b9)
		nd, err := livekv.NewNode(liveSpec{}.config(""), core.ProcessID(p), live.WithFaults(tr, f))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes, closeAll, nil
}

func nodeStatuses(nodes nodesService) func() ([][]groupStatus, error) {
	return func() ([][]groupStatus, error) {
		out := make([][]groupStatus, len(nodes))
		for p, nd := range nodes {
			for _, st := range nd.Status() {
				out[p] = append(out[p], groupStatus{slots: st.LogLen, logHash: st.LogHash, state: st.Fingerprint,
					committed: st.Stats.Committed, divergent: st.Stats.Divergent,
					syncDecisions: st.Stats.SyncDecisions, rounds: st.Stats.Rounds})
			}
		}
		return out, nil
	}
}

// runHTTP is both passes of http_tcp3.
func (e *env) runHTTP(traced bool, seed uint64, window time.Duration) (*passResult, error) {
	res := newPassResult("http_tcp3", traced)
	bin, buildS, err := e.buildHoserve()
	if err != nil {
		return nil, err
	}
	conns := e.gomaxprocs
	warm := e.scale(warmUp)

	// Set-up, repeated: spawn three processes, wait until each serves, then
	// coldStart. The last deployment is kept and measured.
	setups := 25
	if traced {
		setups = 1
	}
	var d *deployment
	var times []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = launch(bin, conns); err != nil {
			return nil, err
		}
		if err := coldStart(d, conns, liveNodes, seed+uint64(i), fmt.Sprint("setup", i)); err != nil {
			d.stop()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer d.stop()

	if traced {
		window /= 3
		warm /= 2
	}
	selfBefore, serversBefore := selfCPU(), d.serverCPU()
	run, violations := runLoad(newLoader(d, conns, liveNodes, seed, putFraction), warm, window, d.cpu, nil)
	selfUsed, serversUsed := selfCPU().minus(selfBefore).total(), d.serverCPU().minus(serversBefore).total()
	res.addLoad(run, violations)
	sts, err := convergedWithin(convergeWait, d.statuses)
	if err != nil {
		res.problem("%v", err)
	}
	res.note("load: %d closed-loop HTTP clients (one connection each, = GOMAXPROCS) pinned to node c mod %d, %d keys/client, %d-byte values, %.0f%% PUT, deadline %v, warm-up %v, window %v",
		conns, liveNodes, keysPerClient, valueBytes, 100*putFraction, opDeadline, warm, window)

	if !traced {
		m := res.Metrics
		m["setup_s"] = medianOfMeans(times, setupGroup)
		res.note("set-up: %d launches of three hoserve processes (spawn, first commit through every node, then 4 ops per client), median over groups of %d of the group mean; the hoserve build (%.2fs) is not in it", setups, setupGroup, buildS)
		return res, nil
	}

	m := res.Metrics
	rc := countersOf(sts)
	m["proc.build_s"] = buildS
	m["proc.sys_cpu_ms_per_op"] = run.win.sysMsPerOp
	m["hoserve.http_floor_us_p50"] = d.httpFloor()
	m["hoserve.cpu_ms_per_op"] = ratio(float64(serversUsed)/1e6, float64(run.attempted-run.failed))
	m["hoserve.loader_cpu_frac"] = ratio(float64(selfUsed), float64(selfUsed+serversUsed))
	m["hoserve.cmds_per_slot"] = ratio(rc.committed, rc.replicaSlots)
	m["hoserve.sync_decision_frac"] = ratio(rc.syncDecisions, rc.replicaSlots)
	for _, p := range d.procs {
		m["hoserve.rss_mb_max"] = max(m["hoserve.rss_mb_max"], peakRSSMB(p.cmd.Process.Pid))
	}
	hoserveP50us := run.win.p50ms * 1e3
	res.note("hoserve over HTTP: %.0f ops/s, op p50 %.1f us", run.win.opsPerS, hoserveP50us)

	// The twin's untraced reference: the same three stacks in process, on
	// live.NewTCP, with no decorators and no HTTP.
	nodes, closeNodes, err := tcpNodes(seed)
	if err != nil {
		return nil, err
	}
	ref, violations := runLoad(newLoader(nodes, conns, liveNodes, seed, putFraction), warm, window, selfCPU, nil)
	if _, err := convergedWithin(convergeWait, nodeStatuses(nodes)); err != nil {
		res.problem("in-process TCP reference: %v", err)
	}
	closeNodes()
	res.Attempted += ref.attempted
	res.Failed += ref.failed
	for _, v := range violations {
		res.problem("stale read on the in-process TCP reference: %s", v)
	}

	tracedOps, err := e.runTwin(res, liveSpec{name: "http_tcp3"}, true, seed, warm, window, conns)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = 1 - ratio(tracedOps, ref.win.opsPerS)
	res.note("untraced %.0f ops/s on three in-process livekv.NewNode over live.NewTCP, traced %.0f ops/s on the TCP twin", ref.win.opsPerS, tracedOps)
	res.note("  %-44s %10.1f us  (hoserve op p50 %.1f us minus the TCP twin's %.1f us)", "HTTP + process boundary",
		hoserveP50us-m["livekv.op_us_p50"], hoserveP50us, m["livekv.op_us_p50"])
	tcpProbes(m)
	return res, nil
}
