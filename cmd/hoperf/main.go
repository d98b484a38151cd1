// Command hoperf is the repository's one attributed benchmark: eight
// workloads (BENCHMARK.json lists the four that are steady on a shared
// host) over the live stack (hoserve, livekv, live, lastvoting, wal,
// kvstore) and the simulator stack (simtime, predimpl, rsm, shard, sweep),
// every output checked for correctness, every metric printed by name and
// unit, and a second, traced pass that attributes latency to layers from
// outside them. README.md is the glossary; BENCHMARK.json is the contract.
//
//	cd cmd/hoperf && go run .                     # whole suite, both passes
//	go run . -workload live_durable -trace 1      # one traced pass
//	go run . -selfcheck                           # two suites, compared
//	bash cmd/hoperf/bench.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hoperf:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// env is one invocation's fixed environment.
type env struct {
	nproc, gomaxprocs int
	quick             bool
	traceOut          string
	single            bool   // one workload was asked for
	modDir            string // cmd/hoperf, where `go build` runs
	scratch           string // per-run temp root on a real filesystem
	commit, fs        string
}

// scale shortens a duration under -quick.
func (e *env) scale(d time.Duration) time.Duration {
	if e.quick {
		return d / 5
	}
	return d
}

// passResult is one (workload, pass) outcome.
type passResult struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Metrics   metricSet
	Spread    map[string]float64 // sub-window spread of the windowed metrics
	Notes     []string
	Problems  []string // correctness failures; any makes the run exit non-zero
}

func newPassResult(workload string, traced bool) *passResult {
	return &passResult{Workload: workload, Traced: traced, Metrics: metricSet{}, Spread: map[string]float64{}}
}

func (r *passResult) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

func (r *passResult) problem(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// addLoad folds one load run into the result: the windowed end-to-end
// metrics, the op counts, and every stale read as a problem.
func (r *passResult) addLoad(run loadRun, violations []string) {
	r.Attempted += run.attempted
	r.Failed += run.failed
	for _, v := range violations {
		r.problem("stale read: %s", v)
	}
	m := r.Metrics
	if r.Traced {
		// The first load of a traced pass is its untraced reference window.
		if _, set := m["op_p99_ms"]; !set {
			m["op_p99_ms"], m["cpu_ms_per_op"] = run.win.p99ms, run.win.cpuMsPerOp
		}
		return
	}
	m["ops_per_s"], m["op_p50_ms"] = run.win.opsPerS, run.win.p50ms
	r.Spread["ops_per_s"], r.Spread["op_p50_ms"] = run.win.spread["ops_per_s"], run.win.spread["op_p50_ms"]
	r.note("window: %d committed ops in %d sub-windows, each metric the median sub-window; per-layer metrics the traced pass reports: op p99 over the whole window %.3f ms (%d samples beyond it), user CPU %.4f ms per op (sub-window spread %.1f%%)",
		run.win.samples, len(run.edges)-1, run.win.p99ms, run.win.beyondP99, run.win.cpuMsPerOp, 100*run.win.spread["cpu_ms_per_op"])
}

// resultLine is the last line of a pass's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run() (int, error) {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all eight)")
		seed      = flag.Uint64("seed", 1, "drives key choice, op mix, fault seeds and simulator seeds")
		seconds   = flag.Int("seconds", defaultSeconds, "measuring time of one pass")
		trace     = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default: both")
		quick     = flag.Bool("quick", false, "durations ÷ 5, for a CI smoke")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare every end-to-end metric against its bound")
		traceOut  = flag.String("trace-out", "", "write the traced pass's spans to this JSON file")
		buildDir  = flag.String("build-dir", "", "where hoserve is built and scratch data lives (default: <repo>/.bench_build)")
		desc      = flag.Bool("describe", false, "print BENCHMARK.json from the metric registry and exit")
	)
	flag.Parse()
	if *desc {
		b, err := describe()
		if err != nil {
			return 1, err
		}
		fmt.Println(string(b))
		return 0, nil
	}
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		return 2, fmt.Errorf("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}

	e, err := newEnv(*buildDir)
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(e.scratch)
	// An interrupted run still removes its data directories (its hoserve
	// children die with it: Pdeathsig).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(e.scratch)
		os.Exit(130)
	}()
	e.quick, e.traceOut, e.single = *quick, *traceOut, len(names) == 1
	window := e.scale(time.Duration(*seconds) * time.Second)
	e.printHeader(*seed, window)

	if *selfcheck {
		return e.selfcheck(names, *seed, window)
	}
	code := 0
	for _, name := range names {
		for pass := 0; pass <= 1; pass++ {
			if *trace >= 0 && *trace != pass {
				continue
			}
			res, err := e.runPass(name, pass == 1, *seed, window)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", name, err)
			}
			ok, err := res.print()
			if err != nil {
				return 1, err
			}
			if !ok {
				code = 1
			}
		}
	}
	return code, nil
}

// runPass dispatches one (workload, pass).
func (e *env) runPass(name string, traced bool, seed uint64, window time.Duration) (*passResult, error) {
	var res *passResult
	var err error
	switch name {
	case "live_delay", "live_lossy", "live_volatile", "live_durable":
		if traced {
			res, err = e.runLiveTraced(liveSpecs[name], seed, window)
			if err == nil && (name == "live_delay" || name == "live_volatile") {
				coreProbes(res.Metrics)
			}
		} else {
			res, err = e.runLive(liveSpecs[name], seed, window)
		}
	case "http_tcp3":
		res, err = e.runHTTP(traced, seed, window)
	case "live_recover":
		res, err = e.runRecover(traced, seed, window)
	case "sim_predimpl":
		res, err = e.runSimPredimpl(traced, seed, window)
	case "sim_rsm":
		res, err = e.runSimRsm(traced, seed, window)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics["proc.gc_pause_ms_total"] = float64(ms.PauseTotalNs) / 1e6
		res.Metrics["proc.peak_rss_mb"] = peakRSSMB(os.Getpid())
		res.Metrics["env.nproc"] = float64(e.nproc)
		res.Metrics["env.gomaxprocs"] = float64(e.gomaxprocs)
		res.Metrics["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	return res, nil
}

// print writes the pass's table, notes and problems, then the result
// line, and reports whether the pass was correct.
func (r *passResult) print() (bool, error) {
	defs, pass := endToEnd, "untraced"
	if r.Traced {
		defs, pass = perLayerOf(r.Workload), "traced"
	}
	metrics, err := r.Metrics.complete(defs)
	if err != nil {
		return false, fmt.Errorf("%s: %w", r.Workload, err)
	}
	fmt.Printf("\n== %s (%s pass): %d ops attempted, %d failed\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, d := range defs {
		v, measured := r.Metrics[d.Name]
		if !measured {
			continue // not a quantity of this workload; the result line carries it as 0
		}
		line := fmt.Sprintf("  %-36s %16.6g %-6s", d.Name, v, d.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			line += fmt.Sprintf(" sub-window spread %5.1f%%", 100*s)
			if d.Bound > 0 && s > d.Bound {
				line += " (wider than the bound)"
			}
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  [bound %.0f%%, %s is better]", 100*d.Bound, d.Better)
		}
		fmt.Println(line)
	}
	for _, n := range r.Notes {
		fmt.Println("  " + n)
	}
	for _, p := range r.Problems {
		fmt.Println("  INCORRECT: " + p)
	}
	correct := len(r.Problems) == 0
	if r.Attempted < 1 {
		return false, fmt.Errorf("%s: no operation attempted", r.Workload)
	}
	b, err := json.Marshal(resultLine{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return correct, nil
}

// newEnv fixes GOMAXPROCS and finds the module directory, the build
// directory and a scratch root on a real filesystem.
func newEnv(buildDir string) (*env, error) {
	e := &env{nproc: runtime.NumCPU()}
	e.gomaxprocs = min(e.nproc, 4)
	runtime.GOMAXPROCS(e.gomaxprocs)
	for _, dir := range []string{".", filepath.Join("cmd", "hoperf")} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.Contains(string(b), "module heardof/cmd/hoperf") {
			e.modDir = dir
			break
		}
	}
	if e.modDir == "" {
		return nil, fmt.Errorf("run from the repository root or from cmd/hoperf (cmd/hoperf/go.mod not found)")
	}
	root := filepath.Join(e.modDir, "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("the repository's go.mod is not above %s: the benchmark measures that module and cannot run without it", e.modDir)
	}
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(abs, "run-"); err != nil {
		return nil, err
	}
	e.commit = commitOf(root)
	e.fs = fsTypeOf(e.scratch)
	return e, nil
}

// buildDir is where built binaries are kept between runs.
func (e *env) buildDir() string { return filepath.Dir(e.scratch) }

// printHeader records what the numbers depend on, so that figures from
// different machines are not compared blind.
func (e *env) printHeader(seed uint64, window time.Duration) {
	fmt.Printf("hoperf commit=%s go=%s nproc=%d gomaxprocs=%d data-dir-fs=%s fsync_us_p50=%.1f seed=%d window=%v quick=%v\n",
		e.commit, runtime.Version(), e.nproc, e.gomaxprocs, e.fs, probeFsync(e.scratch), seed, window, e.quick)
}

// commitOf names the measured commit: plain git when the tree is a
// checkout, else the build's VCS stamp, else "unknown" (an exported tree).
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fsTypeOf names the filesystem holding dir, from statfs's magic number.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", int64(st.Type))
}
