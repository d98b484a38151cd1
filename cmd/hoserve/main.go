// Command hoserve is the live deployment of the replicated key-value
// store: the SAME LastVoting/OneThirdRule instances every simulator
// layer runs, now deciding real slots over real transports behind an
// HTTP API (internal/live + internal/livekv).
//
// Two deployment shapes:
//
//	hoserve -local 3 -groups 2 -http 127.0.0.1:8080
//	    one process hosting a 3-node cluster over the in-process channel
//	    transport — the zero-setup demo and experiment configuration;
//	    requests round-robin across the nodes.
//
//	hoserve -id 0 -nodes 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -http :8101
//	    one server process of a multi-process deployment over the
//	    length-prefixed TCP transport; run one hoserve per entry in
//	    -nodes. Every process hosts a replica of every group, so any
//	    process serves any key.
//
// HTTP API:
//
//	PUT    /kv/{key}   body = value; returns after the write committed
//	GET    /kv/{key}   linearizable read through the replicated log
//	DELETE /kv/{key}   replicated deletion
//	GET    /healthz    liveness probe: 503 naming the node, the group
//	                   and the error once a durability failure has
//	                   halted a group's replica
//	GET    /stats      per-group counters, decision-log and state
//	                   fingerprints (what the smoke jobs diff across
//	                   nodes to prove zero divergence)
//
// Fault injection (-loss, -delay, for chaos drills) applies at the
// transport layer of THIS process only — the algorithms are never told.
//
// Durability: -data-dir makes the process durable — every group keeps a
// write-ahead log and periodic snapshots there, and a process killed
// with SIGKILL mid-load recovers its decision logs, state machines, and
// client sessions by restarting with the same directory. SIGTERM/SIGINT
// additionally snapshot-then-exit so the next start replays nothing.
// With -local the directory is a deployment root holding one
// subdirectory per in-process node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/livekv"
	"heardof/internal/otr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		local     = flag.Int("local", 0, "run an in-process cluster of this many nodes over the channel transport")
		id        = flag.Int("id", -1, "this process's index into -nodes (TCP deployment)")
		nodes     = flag.String("nodes", "", "comma-separated host:port consensus addresses, one per process (TCP deployment)")
		httpAddr  = flag.String("http", "127.0.0.1:8080", "HTTP listen address")
		groups    = flag.Int("groups", 1, "independent replication groups keys are sharded across")
		alg       = flag.String("alg", "lastvoting", "consensus algorithm: lastvoting or otr")
		timeout   = flag.Duration("timeout", 2*time.Millisecond, "per-round collection timeout")
		batch     = flag.Int("batch", 64, "max commands per proposal batch")
		opTimeout = flag.Duration("optimeout", 10*time.Second, "per-request commit deadline")
		loss      = flag.Float64("loss", 0, "injected iid message loss probability in [0, 1)")
		delay     = flag.Duration("delay", 0, "injected max message delay (uniform in [0, delay])")
		seed      = flag.Uint64("seed", 1, "fault-injection seed")
		dataDir   = flag.String("data-dir", "", "write-ahead log + snapshot directory; empty = volatile node (kill -9 with the same -data-dir recovers the full state)")
		snapEvery = flag.Int("snapevery", 0, "snapshot cadence in applied slots per group (0 = default, negative = never)")
		noFsync   = flag.Bool("nofsync", false, "skip per-commit fsync (durable against process crashes only)")
	)
	flag.Parse()

	if *loss < 0 || *loss >= 1 {
		return fmt.Errorf("loss %v outside [0, 1)", *loss)
	}
	cfg := livekv.Config{
		Groups:        *groups,
		RoundTimeout:  *timeout,
		MaxBatch:      *batch,
		OpTimeout:     *opTimeout,
		DataDir:       *dataDir,
		NoFsync:       *noFsync,
		SnapshotEvery: *snapEvery,
	}
	switch *alg {
	case "lastvoting":
		cfg.Algorithm, cfg.Msg = lastvoting.Algorithm{}, lastvoting.WireCodec{}
	case "otr":
		cfg.Algorithm, cfg.Msg = otr.Algorithm{}, otr.WireCodec{}
	default:
		return fmt.Errorf("unknown algorithm %q (want lastvoting or otr)", *alg)
	}

	faults := func(p int) *live.Faults {
		f := live.NewFaults(*seed + uint64(p)*0x9e3779b9)
		f.SetLoss(*loss)
		if *delay > 0 {
			f.SetDelay(0, *delay)
		}
		return f
	}

	var (
		serve   []*livekv.Node // nodes this HTTP endpoint balances over
		cleanup func()
	)
	switch {
	case *local > 0:
		cfg.Replicas = *local
		cluster, err := livekv.NewCluster(cfg, *seed)
		if err != nil {
			return err
		}
		for i := 0; i < cluster.N(); i++ {
			cluster.Faults(i).SetLoss(*loss)
			if *delay > 0 {
				cluster.Faults(i).SetDelay(0, *delay)
			}
			serve = append(serve, cluster.Node(i))
		}
		cluster.Start()
		cleanup = cluster.Close
		fmt.Fprintf(os.Stderr, "hoserve: local %d-node cluster, %d group(s), %s over channels, loss=%g\n",
			*local, *groups, *alg, *loss)
	case *nodes != "":
		addrs := strings.Split(*nodes, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		cfg.Replicas = len(addrs)
		if *id < 0 || *id >= len(addrs) {
			return fmt.Errorf("id %d outside -nodes table of %d", *id, len(addrs))
		}
		ln, err := live.ListenTCP(addrs[*id])
		if err != nil {
			return fmt.Errorf("consensus listener: %w", err)
		}
		tr, err := live.NewTCP(core.ProcessID(*id), ln, addrs)
		if err != nil {
			return err
		}
		nd, err := livekv.NewNode(cfg, core.ProcessID(*id), live.WithFaults(tr, faults(*id)))
		if err != nil {
			return err
		}
		nd.Start()
		serve = []*livekv.Node{nd}
		cleanup = func() { nd.Close() }
		durability := "volatile"
		if *dataDir != "" {
			durability = "data-dir " + *dataDir
		}
		fmt.Fprintf(os.Stderr, "hoserve: node %d of %d at %s, %d group(s), %s over TCP, loss=%g, %s\n",
			*id, len(addrs), addrs[*id], *groups, *alg, *loss, durability)
	default:
		return errors.New("pick a deployment: -local N, or -id I -nodes a,b,c")
	}
	defer cleanup()

	var next atomic.Uint64
	pick := func() *livekv.Node {
		return serve[int(next.Add(1))%len(serve)]
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/kv/")
		if key == "" {
			http.Error(w, "missing key", http.StatusBadRequest)
			return
		}
		nd := pick()
		switch r.Method {
		case http.MethodPut, http.MethodPost:
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := nd.Put(r.Context(), key, string(body)); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		case http.MethodGet:
			v, ok, err := nd.Get(r.Context(), key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			if !ok {
				http.NotFound(w, r)
				return
			}
			io.WriteString(w, v)
		case http.MethodDelete:
			if err := nd.Delete(r.Context(), key); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		for _, nd := range serve {
			if err := nd.Err(); err != nil {
				http.Error(w, fmt.Sprintf("node %d: %v", nd.Self(), err), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		for _, nd := range serve {
			writeStats(w, nd)
		}
	})

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("http listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(httpLn) }()
	fmt.Fprintf(os.Stderr, "hoserve: serving HTTP on %s\n", httpLn.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hoserve: %v — shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		// Graceful exit on a durable node: snapshot every group and
		// truncate the logs, so the next start replays nothing. (A
		// kill -9 skips this and recovers via log replay instead —
		// same state, slower start.)
		for _, nd := range serve {
			if err := nd.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "hoserve: shutdown checkpoint: %v\n", err)
			}
		}
		return nil
	}
}

// writeStats emits one node's per-group counters, one line per group.
// The slots/log/state/applied/committed fields must agree across every
// node of a deployment once traffic quiesces (the smoke scripts diff
// them); divergent must be 0 always; sync/pending/batches,
// forwards/merged, open/overlapped (the slot window: slots in flight
// now, entries re-minted while an open proposal carried them) and joined
// (slots opened beyond this node's window because a peer's round message
// named them: this node was a hop behind) are node-local. New fields go at the
// END of the line: readers scan the prefix they know (hoperf does).
func writeStats(w io.Writer, nd *livekv.Node) {
	for _, st := range nd.Status() {
		h := fnv.New64a()
		io.WriteString(h, st.Fingerprint)
		fmt.Fprintf(w, "node %d group %d slots=%d log=%#x state=%#x applied=%d committed=%d divergent=%d sync=%d pending=%d batches=%d forwards=%d merged=%d open=%d overlapped=%d joined=%d\n",
			nd.Self(), st.Group, st.LogLen, st.LogHash, h.Sum64(), st.Applied,
			st.Stats.Committed, st.Stats.Divergent, st.Stats.SyncDecisions,
			st.Stats.Pending, st.Stats.BatchesHeld, st.Stats.Forwards, st.Stats.Merged,
			st.Stats.Open, st.Stats.Overlapped, st.Stats.Joined)
	}
}
