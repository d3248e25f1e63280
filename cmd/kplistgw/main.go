// Command kplistgw is the kplist cluster gateway: it fronts a static
// membership of kplistd nodes with the same /v1 API a single node serves.
// Graph IDs are placed on a deterministic consistent-hash ring (owner +
// R−1 replicas); the gateway routes every request to the owner, fails
// reads over to replicas when the owner is down, fans mutation batches
// out to replicas after the owner acknowledges, and serves partitioned
// graphs (?partitioned=1) by scatter–gather: each shard streams the
// cliques whose smallest vertex lies in its vertex range, and the gateway
// concatenates the NDJSON streams in range order into the same byte
// sequence a single node would emit.
//
// Replication self-heals, and the gateway keeps no replication state: a
// background anti-entropy sweep (-repair-interval) compares per-graph
// state digests across the replica set, ships a lagging replica the
// batches it missed from the owner's write-ahead log, and reinstalls a
// copy from the owner's export only when the log cannot cover the gap.
//
//	kplistd -addr :8081 -cluster-self n1 -cluster-peers 'n1=:8081,n2=:8082,n3=:8083' &
//	kplistd -addr :8082 -cluster-self n2 -cluster-peers 'n1=:8081,n2=:8082,n3=:8083' &
//	kplistd -addr :8083 -cluster-self n3 -cluster-peers 'n1=:8081,n2=:8082,n3=:8083' &
//	kplistgw -addr :8080 -peers 'n1=:8081,n2=:8082,n3=:8083'
//
//	curl -s -X POST localhost:8080/v1/graphs \
//	  -d '{"name":"demo","workload":{"family":"planted-clique","n":256,"seed":7,"cliqueSize":4}}'
//	curl -s 'localhost:8080/v1/graphs/<id>/cliques?p=4&stream=1'
//	curl -s localhost:8080/healthz
//
// See DESIGN.md §12 for the cluster architecture and §13 for the
// self-healing replication machinery.
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

	"kplist/internal/cluster"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kplistgw:", err)
		os.Exit(1)
	}
}

// run starts the gateway and blocks until ctx is cancelled (then drains
// connections) or the listener fails. When ready is non-nil the bound
// address is sent on it once listening — the test hook for -addr :0.
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("kplistgw", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		peers   = fs.String("peers", "", "cluster membership: @file.json, or inline name=addr,name=addr,...")
		repl    = fs.Int("replication", 0, "replicas per graph including the owner (0 = config default 2)")
		vnodes  = fs.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = config default 64)")
		seed    = fs.Int64("hash-seed", 0, "hash-ring seed (must match the nodes' -cluster-seed)")
		probe   = fs.Duration("probe-interval", 2*time.Second, "member health-probe period")
		backoff = fs.Duration("retry-backoff", 25*time.Millisecond, "base pause before each read-failover attempt")
		repair  = fs.Duration("repair-interval", 0, "anti-entropy sweep period (0 = default 5s, <0 disables the sweeper)")
		jitter  = fs.Int64("jitter-seed", 0, "seed for probe/backoff jitter (0 = default 1; fix for reproducible runs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return errors.New("-peers is required")
	}
	ccfg, err := cluster.ParseConfig(*peers)
	if err != nil {
		return err
	}
	if *repl > 0 {
		ccfg.Replication = *repl
	}
	if *vnodes > 0 {
		ccfg.VNodes = *vnodes
	}
	if *seed != 0 {
		ccfg.Seed = *seed
	}
	client, err := cluster.NewClient(ccfg, cluster.ClientOptions{
		ProbeInterval:  *probe,
		RetryBackoff:   *backoff,
		RepairInterval: *repair,
		JitterSeed:     *jitter,
	})
	if err != nil {
		return err
	}
	client.Start()
	defer client.Close()
	gw := cluster.NewGateway(client)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ring := client.Ring()
	fmt.Fprintf(logw, "kplistgw listening on %s (%d members, replication=%d, vnodes=%d, probe=%s)\n",
		ln.Addr(), len(ring.Members()), ring.Replication(), ring.Config().VNodes, *probe)
	if ready != nil {
		ready <- ln.Addr()
	}

	hs := &http.Server{Handler: gw}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(logw, "kplistgw: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
