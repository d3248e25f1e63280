package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kplist/internal/cluster"
	"kplist/internal/server"
)

// node is one kplistd: a real server.Server behind an http.Server on a
// loopback listener, configured the way cmd/kplistd configures it.
type node struct {
	name string
	cfg  server.Config
	srv  *server.Server
	hs   *http.Server
	url  string
	errc chan error
}

// stack is the serving system one workload runs against: a single node,
// or three cluster-mode nodes behind a gateway.
type stack struct {
	nodes  []*node
	client *cluster.Client // nil without a gateway
	gw     *http.Server
	gwDone chan error
	gwURL  string
	// base is where workload clients send requests.
	base string
}

// nodeConfig mirrors cmd/kplistd's flag defaults, fsync per batch and
// default compaction included; an empty dataDir keeps the node in memory.
func nodeConfig(dataDir string) server.Config {
	return server.Config{
		MaxGraphs:       64,
		PoolSize:        8,
		QueueLimit:      64,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		DataDir:         dataDir,
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode opens the server (recovering dataDir when set) and serves it
// on ln. With a tracer, the handler records a span per request.
func startNode(name string, cfg server.Config, ln net.Listener, tr *tracer) (*node, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler("node", name, h)
	}
	n := &node{name: name, cfg: cfg, srv: srv, hs: &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { n.errc <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the node's connections, then flushes its durable stores.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// bootSingle starts one standalone node.
func bootSingle(dataDir string, tr *tracer) (*stack, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n, err := startNode("n1", nodeConfig(dataDir), ln, tr)
	if err != nil {
		return nil, err
	}
	return &stack{nodes: []*node{n}, base: n.url}, nil
}

// bootCluster starts three durable cluster-mode nodes (R=2) under dir and
// a gateway whose Client is built and started the way cmd/kplistgw does
// it. With a tracer, the gateway's node requests go through a
// span-recording transport.
func bootCluster(dir string, tr *tracer) (*stack, error) {
	const members = 3
	lns := make([]net.Listener, members)
	peers := make([]string, members)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = fmt.Sprintf("n%d=http://%s", i+1, ln.Addr())
	}
	ccfg, err := cluster.ParseConfig(strings.Join(peers, ","))
	if err != nil {
		return nil, err
	}
	ccfg.Replication = 2
	st := &stack{}
	for i, ln := range lns {
		name := fmt.Sprintf("n%d", i+1)
		ring, err := cluster.NewRing(ccfg)
		if err != nil {
			ln.Close()
			st.close()
			return nil, err
		}
		cfg := nodeConfig(filepath.Join(dir, name))
		cfg.ClusterSelf, cfg.ClusterRing = name, ring
		n, err := startNode(name, cfg, ln, tr)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	// cmd/kplistgw's flag defaults: probe every 2s, 25ms failover backoff,
	// default hint queue, repair interval and jitter seed.
	opts := cluster.ClientOptions{ProbeInterval: 2 * time.Second, RetryBackoff: 25 * time.Millisecond}
	if tr != nil {
		opts.HTTPClient = &http.Client{Transport: &legTransport{tr: tr, base: http.DefaultTransport}}
	}
	client, err := cluster.NewClient(ccfg, opts)
	if err != nil {
		st.close()
		return nil, err
	}
	client.Start()
	st.client = client
	var h http.Handler = cluster.NewGateway(client)
	if tr != nil {
		h = tr.handler("gateway", "gw", h)
	}
	ln, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = &http.Server{Handler: h}
	st.gwURL = "http://" + ln.Addr().String()
	st.base = st.gwURL
	gwErr := make(chan error, 1)
	go func() { gwErr <- st.gw.Serve(ln) }()
	st.gwDone = gwErr
	return st, nil
}

// close stops the gateway first (no more fan-out), then the nodes.
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(st.gw.Shutdown(ctx))
		cancel()
		if err := <-st.gwDone; !errors.Is(err, http.ErrServerClosed) {
			keep(err)
		}
		st.gw = nil
	}
	if st.client != nil {
		st.client.Close()
		st.client = nil
	}
	for _, n := range st.nodes {
		keep(n.stop())
	}
	st.nodes = nil
	return first
}

// nodeNamed returns the stack's node with that member name.
func (st *stack) nodeNamed(name string) *node {
	for _, n := range st.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// newClientHTTP is one benchmark client's HTTP client: a single
// keep-alive connection per host, so two clients hold two connections.
func newClientHTTP() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// call sends one request and decodes a JSON answer into out (nil skips
// decoding). Statuses other than 2xx come back as errors carrying the body.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, hdr http.Header, out any) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.Header, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.Header, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.Header, nil
}

// forwardHeader marks a request as cluster traffic, which lets it reach a
// cluster-mode node directly.
func forwardHeader() http.Header {
	return http.Header{cluster.ForwardHeader: []string{"1"}}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // a file compacted away mid-walk; count what remains
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
