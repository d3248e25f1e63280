// Command kplistd serves clique-listing queries over HTTP: a multi-tenant
// graph registry (upload edge lists or generate workload-family graphs),
// an LRU pool of open sessions, engine-selectable single/batch queries,
// NDJSON clique streaming, and admission control with load-shedding.
// Every graph carries an applied-batch sequence number exposed through
// /v1/graphs/{id}/digest (seq + edge-set content hash) and
// /v1/graphs/{id}/export (a register document that reproduces state and
// seq on another node), and a durable node serves its write-ahead log's
// tail through /v1/graphs/{id}/log?after=N; in cluster mode, replica
// applies are seq-tagged so duplicates are acknowledged idempotently and
// gaps are refused — the foundation of the gateway's anti-entropy repair.
//
//	kplistd -addr :8080
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/graphs \
//	  -d '{"name":"demo","workload":{"family":"planted-clique","n":256,"seed":7,"cliqueSize":4}}'
//	curl -s -X POST localhost:8080/v1/graphs/g1/query -d '{"p":4}'
//	curl -s 'localhost:8080/v1/graphs/g1/cliques?p=4&stream=1'
//	curl -s localhost:8080/metrics
//
// See DESIGN.md §7 for the serving architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kplist"
	"kplist/internal/cluster"
	"kplist/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kplistd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (then drains
// connections) or the listener fails. When ready is non-nil the bound
// address is sent on it once listening — the test hook for -addr :0.
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("kplistd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		poolSize    = fs.Int("pool", 8, "max open sessions (LRU-evicted beyond this)")
		maxGraphs   = fs.Int("max-graphs", 64, "max registered graphs")
		inFlight    = fs.Int("inflight", 0, "max concurrently executing requests (0 = 2×GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "max requests waiting for an execution slot before shedding 429s")
		deadline    = fs.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = fs.Duration("max-deadline", 2*time.Minute, "ceiling for ?deadline_ms= overrides")
		sessConc    = fs.Int("session-concurrency", 0, "per-session scheduler bound (0 = GOMAXPROCS)")
		verify      = fs.Bool("verify", false, "cross-check every fresh result against sequential ground truth")
		dataDir     = fs.String("data-dir", "", "directory for durable graph state (snapshots + WALs); empty = in-memory only")
		noSync      = fs.Bool("no-fsync", false, "skip the per-batch WAL fsync (faster, loses acknowledged batches on crash)")
		clusterSelf = fs.String("cluster-self", "", "this node's member name in -cluster-peers (enables cluster mode)")
		clusterPeer = fs.String("cluster-peers", "", "cluster membership: @file.json, or inline name=addr,name=addr,...")
		clusterRepl = fs.Int("cluster-replication", 0, "replicas per graph including the owner (0 = config default 2)")
		clusterVN   = fs.Int("cluster-vnodes", 0, "virtual nodes per member on the hash ring (0 = config default 64)")
		clusterSeed = fs.Int64("cluster-seed", 0, "hash-ring seed (must match the gateway's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ring *cluster.Ring
	if *clusterSelf != "" || *clusterPeer != "" {
		if *clusterSelf == "" || *clusterPeer == "" {
			return errors.New("cluster mode needs both -cluster-self and -cluster-peers")
		}
		ccfg, err := cluster.ParseConfig(*clusterPeer)
		if err != nil {
			return err
		}
		if *clusterRepl > 0 {
			ccfg.Replication = *clusterRepl
		}
		if *clusterVN > 0 {
			ccfg.VNodes = *clusterVN
		}
		if *clusterSeed != 0 {
			ccfg.Seed = *clusterSeed
		}
		if _, ok := ccfg.MemberNamed(*clusterSelf); !ok {
			return fmt.Errorf("-cluster-self %q is not a member of -cluster-peers", *clusterSelf)
		}
		ring, err = cluster.NewRing(ccfg)
		if err != nil {
			return err
		}
	}
	cfg := server.Config{
		MaxGraphs:       *maxGraphs,
		PoolSize:        *poolSize,
		MaxInFlight:     *inFlight,
		QueueLimit:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Session: kplist.SessionConfig{
			MaxConcurrent: *sessConc,
			Verify:        *verify,
		},
		DataDir:     *dataDir,
		Store:       kplist.StoreConfig{NoSync: *noSync},
		ClusterSelf: *clusterSelf,
		ClusterRing: ring,
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return fmt.Errorf("opening data dir %s: %w", *dataDir, err)
	}
	defer srv.Close()
	if *dataDir != "" {
		rep := srv.Recovery()
		fmt.Fprintf(logw, "kplistd: recovered %d graph(s) from %s (%d WAL records replayed, %d truncation(s), %d orphan(s) swept) in %s\n",
			rep.Graphs, *dataDir, rep.WALRecordsReplayed, rep.WALTruncations, rep.OrphansSwept,
			rep.Elapsed.Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "kplistd listening on %s (pool=%d graphs=%d queue=%d deadline=%s)\n",
		ln.Addr(), *poolSize, *maxGraphs, *queue, *deadline)
	if ring != nil {
		fmt.Fprintf(logw, "kplistd: cluster mode as %q (%d members, replication=%d, vnodes=%d)\n",
			*clusterSelf, len(ring.Members()), ring.Replication(), ring.Config().VNodes)
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(logw, "kplistd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Connections drained: flush and release the durable stores so a
		// graceful shutdown leaves fully-synced WALs.
		return srv.Close()
	}
}
