package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"kplist/internal/server"
)

// ExampleServer walks the kplistd HTTP surface in-process: it registers
// one generated and one uploaded graph, runs a batch query with engine
// selection, streams a listing as NDJSON, mutates a graph and scrapes
// /metrics. cmd/kplistd serves the same handler.
func ExampleServer() {
	srv := server.New(server.Config{PoolSize: 2, DefaultDeadline: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Register a planted-clique workload and an uploaded K5 with a
	// pendant vertex.
	var gen, up server.GraphInfo
	call(http.MethodPost, ts.URL+"/v1/graphs", map[string]any{"name": "demo",
		"workload": map[string]any{"family": "planted-clique", "n": 300, "seed": 42, "cliqueSize": 4}}, &gen)
	call(http.MethodPost, ts.URL+"/v1/graphs", map[string]any{"name": "k5", "n": 6,
		"edges": [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5}}}, &up)

	// A batch query with engine selection; the repeated query is a
	// session cache hit.
	var batch struct {
		Results []struct {
			Query struct {
				P    int    `json:"p"`
				Algo string `json:"algo"`
			} `json:"query"`
			Cliques int `json:"cliques"`
		} `json:"results"`
	}
	call(http.MethodPost, ts.URL+"/v1/graphs/"+gen.ID+"/query", map[string]any{"queries": []map[string]any{
		{"p": 4, "algo": "congested-clique"}, {"p": 4, "algo": "congest"}, {"p": 4, "algo": "congested-clique"},
	}}, &batch)
	for _, r := range batch.Results {
		fmt.Printf("  p=%d algo=%s cliques=%d\n", r.Query.P, r.Query.Algo, r.Cliques)
	}

	// Stream the K4s as NDJSON, one clique per line, from an engine run
	// and from the exact ground truth.
	stream(ts.URL + "/v1/graphs/" + gen.ID + "/cliques?p=4&algo=congest")
	stream(ts.URL + "/v1/graphs/" + gen.ID + "/cliques?p=4&algo=truth")

	// Remove one K5 edge: three of its five K4s go with it.
	stream(ts.URL + "/v1/graphs/" + up.ID + "/cliques?p=4&algo=truth")
	call(http.MethodPatch, ts.URL+"/v1/graphs/"+up.ID+"/edges",
		map[string]any{"mutations": []map[string]any{{"op": "remove", "u": 0, "v": 1}}}, nil)
	stream(ts.URL + "/v1/graphs/" + up.ID + "/cliques?p=4&algo=truth")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		fmt.Println(err)
		return
	}
	resp.Body.Close()
	fmt.Println("GET /metrics:", resp.StatusCode)
	// Output:
	// POST /v1/graphs: 201
	// POST /v1/graphs: 201
	// POST /v1/graphs/g1/query: 200
	//   p=4 algo=congested-clique cliques=13
	//   p=4 algo=congest cliques=13
	//   p=4 algo=congested-clique cliques=13
	// GET p=4&algo=congest: 200, 13 lines
	// GET p=4&algo=truth: 200, 13 lines
	// GET p=4&algo=truth: 200, 5 lines
	// PATCH /v1/graphs/g2/edges: 200
	// GET p=4&algo=truth: 200, 2 lines
	// GET /metrics: 200
}

// call sends v as JSON, prints the status line and decodes the response
// into out when out is non-nil.
func call(method, url string, v, out any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fmt.Println(err)
		return
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		fmt.Println(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	fmt.Printf("%s %s: %d\n", method, req.URL.Path, resp.StatusCode)
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			fmt.Println(err)
		}
	}
}

// stream GETs an NDJSON listing and prints its status and line count.
func stream(url string) {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("GET %s: %d, %d lines\n", resp.Request.URL.RawQuery, resp.StatusCode, lines)
}
