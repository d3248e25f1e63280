package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kplist"
	"kplist/internal/server"
)

// TestLoad128Clients is the acceptance load test (run under -race in CI):
// 128 concurrent clients hammer one kplistd instance with queries and
// streams. The accept queue is sized above the client count, so nothing
// may shed: every request must come back 200 with an exact answer —
// zero dropped-but-accepted requests.
func TestLoad128Clients(t *testing.T) {
	const clients = 128
	srv, ts := newTestServer(t, func(c *server.Config) {
		c.PoolSize = 2
		c.QueueLimit = 2 * clients
		c.MaxInFlight = 8
		c.DefaultDeadline = time.Minute
	})
	idA, instA := registerWorkload(t, ts.URL, 90, 11)
	idB, instB := registerWorkload(t, ts.URL, 70, 13)

	wantA := kplist.GroundTruth(instA.G, 4)
	wantB := kplist.GroundTruth(instB.G, 4)
	var expectA bytes.Buffer
	for _, c := range wantA {
		line, _ := json.Marshal(c)
		expectA.Write(line)
		expectA.WriteByte('\n')
	}

	client := &http.Client{Timeout: time.Minute}
	var wrong, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed traffic: batch query on A, single on B, stream on A.
			resp, body := doPost(t, client, ts.URL+"/v1/graphs/"+idA+"/query", map[string]any{
				"queries": []map[string]any{
					{"p": 4, "algo": "congested-clique"},
					{"p": 3},
					{"p": 4, "algo": "congested-clique"}, // duplicate → cache
				},
			})
			switch resp.StatusCode {
			case http.StatusOK:
				var qr struct {
					Results []struct {
						Cliques int    `json:"cliques"`
						Error   string `json:"error"`
					} `json:"results"`
				}
				if err := json.Unmarshal(body, &qr); err != nil ||
					len(qr.Results) != 3 ||
					qr.Results[0].Error != "" ||
					qr.Results[0].Cliques != len(wantA) ||
					qr.Results[0].Cliques != qr.Results[2].Cliques {
					t.Errorf("client %d: bad batch answer: %s", i, body)
					wrong.Add(1)
				}
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				t.Errorf("client %d: batch status %d: %s", i, resp.StatusCode, body)
				wrong.Add(1)
			}

			resp, body = doPost(t, client, ts.URL+"/v1/graphs/"+idB+"/query",
				map[string]any{"p": 4, "algo": "congested-clique"})
			if resp.StatusCode == http.StatusOK {
				var qr struct {
					Results []struct {
						Cliques int `json:"cliques"`
					} `json:"results"`
				}
				if err := json.Unmarshal(body, &qr); err != nil ||
					len(qr.Results) != 1 || qr.Results[0].Cliques != len(wantB) {
					t.Errorf("client %d: bad single answer: %s", i, body)
					wrong.Add(1)
				}
			} else {
				t.Errorf("client %d: single status %d", i, resp.StatusCode)
				wrong.Add(1)
			}

			resp, body = doGet(t, client, ts.URL+"/v1/graphs/"+idA+"/cliques?p=4&algo=congested-clique")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, expectA.Bytes()) {
				t.Errorf("client %d: stream status %d, %d bytes (want %d)",
					i, resp.StatusCode, len(body), expectA.Len())
				wrong.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong answers under load", w)
	}
	// The queue was sized above the client count: nothing may have shed.
	if s := shed.Load(); s != 0 {
		t.Fatalf("%d requests shed despite queue capacity %d", s, 2*clients)
	}
	st := srv.Pool().Stats()
	if st.SessionQueries == 0 || st.Open > 2 {
		t.Errorf("pool stats after load: %+v", st)
	}
}

func doPost(t *testing.T, c *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	return resp, out
}

func doGet(t *testing.T, c *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	return resp, out
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.Bytes()
}

// TestAdmissionSheds429UnderSaturation pins the load-shedding contract:
// with one execution slot and a one-deep queue, a burst of slow cold
// queries must shed some requests with 429 — and nothing may land outside
// {200, 429, 503}.
func TestAdmissionSheds429UnderSaturation(t *testing.T) {
	_, ts := newTestServer(t, func(c *server.Config) {
		c.MaxInFlight = 1
		c.QueueLimit = 1
		c.DefaultDeadline = time.Minute
	})
	// Dense stochastic-block, sized so every cold congested-clique query
	// still runs ~10ms on the fast enumeration kernel and the burst
	// genuinely overlaps on the single slot.
	spec := kplist.DefaultWorkloadSpec(kplist.WorkloadStochasticBlock, 512, 17)
	resp0, body0 := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"workload": spec})
	if resp0.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp0.StatusCode, body0)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(body0, &info); err != nil {
		t.Fatal(err)
	}
	id := info.ID

	const burst = 24
	client := &http.Client{Timeout: time.Minute}
	var ok, shed, timedOut, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat the session cache, so every admitted
			// request occupies the single slot for real work.
			resp, _ := doPost(t, client, ts.URL+"/v1/graphs/"+id+"/query",
				map[string]any{"p": 4, "algo": "congested-clique", "seed": i})
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			case http.StatusServiceUnavailable:
				timedOut.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("statuses outside the admission contract: ok=%d shed=%d timeout=%d other=%d",
			ok.Load(), shed.Load(), timedOut.Load(), other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("saturation must not starve every request")
	}
	if shed.Load() == 0 {
		t.Fatal("a 24-burst against a 2-deep server must shed")
	}
	if got := ok.Load() + shed.Load() + timedOut.Load(); got != burst {
		t.Fatalf("accounted %d of %d requests", got, burst)
	}
}

// TestDeadlineReturns503 pins the per-request deadline: while another
// request holds the single execution slot, a request with a 5ms deadline
// must leave the queue with 503 and a deadline error — and the server
// stays serviceable afterwards. The slot is held by a registration whose
// body the test streams itself: sent with "Expect: 100-continue", its
// first byte leaves the client only once the admitted handler reads the
// body, so when that write returns the slot is taken, and it stays taken
// until the test writes the rest, however fast the engines are.
// (Engine-level mid-run cancellation is covered by the Session tests;
// this exercises the queue half of the deadline.)
func TestDeadlineReturns503(t *testing.T) {
	_, ts := newTestServer(t, func(c *server.Config) {
		c.MaxInFlight = 1
		c.QueueLimit = 8
		c.DefaultDeadline = time.Minute
	})
	id, _ := registerWorkload(t, ts.URL, 90, 11)

	hold, err := json.Marshal(map[string]any{"workload": kplist.DefaultWorkloadSpec(kplist.WorkloadPlantedClique, 60, 3)})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Expect", "100-continue")
	holder := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	t.Cleanup(holder.CloseIdleConnections)
	held := make(chan int, 1)
	go func() {
		resp, err := holder.Do(req)
		if err != nil {
			t.Errorf("holding registration: %v", err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	if _, err := pw.Write(hold[:1]); err != nil { // returns once the handler holds the slot
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query?deadline_ms=5",
		map[string]any{"p": 4, "seed": 999})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline query: status %d body %s, want 503", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("deadline")) {
		t.Errorf("503 body should carry the deadline error, got %s", body)
	}
	if _, err := pw.Write(hold[1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if st := <-held; st != http.StatusCreated {
		t.Fatalf("holding registration finished %d, want 201", st)
	}
	// The deadline miss left everything reusable.
	resp, body = postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4, "seed": 999})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up query: status %d body %s", resp.StatusCode, body)
	}
	var qr struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil || len(qr.Results) != 1 || qr.Results[0].Error != "" {
		t.Fatalf("follow-up not clean: %s", body)
	}
}
