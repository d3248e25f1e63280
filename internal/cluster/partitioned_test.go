package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kplist"
	"kplist/internal/cluster"
	"kplist/internal/server"
)

// BenchmarkPartitionedColdScatter times the first scatter after a
// partitioned registration on a loopback 3-member cluster (R=2) over
// sbm-1024 (stochastic-block, n=1024, seed 7) at p=4: every leg misses its
// node's listing memo. Registration and deletion run off the clock.
func BenchmarkPartitionedColdScatter(b *testing.B) {
	h := newHarness(b, 3, 2, 7)
	body, _ := json.Marshal(workloadBody(kplist.WorkloadStochasticBlock, 1024, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		meta, err := h.client.RegisterPartitioned(context.Background(), body, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if stream(b, h.gw.URL, meta.ID, 4, "&algo=truth") == "" {
			b.Fatal("empty listing")
		}
		b.StopTimer()
		do(b, http.MethodDelete, h.gw.URL+"/v1/graphs/"+meta.ID, nil).Body.Close()
		b.StartTimer()
	}
}

// TestPartitionedRegisterFailureLeavesNoShards: the last member answers
// 500 to every registration, so a partitioned registration fails after
// the other members' shards (and replicas) are placed. The gateway
// deletes them again: neither healthy node lists a shard graph after the
// error.
func TestPartitionedRegisterFailureLeavesNoShards(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "no room", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(failing.Close)
	var members []cluster.Member
	healthy := map[string]string{} // name → URL
	for _, name := range []string{"n1", "n2"} {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		t.Cleanup(ts.Close)
		healthy[name] = ts.URL
		members = append(members, cluster.Member{Name: name, Addr: ts.URL})
	}
	members = append(members, cluster.Member{Name: "n3", Addr: failing.URL})
	c, err := cluster.NewClient(cluster.Config{Members: members, Replication: 2},
		cluster.ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(workloadBody(kplist.WorkloadPlantedClique, 100, 5))
	if _, err := c.RegisterPartitioned(context.Background(), body, 3); err == nil {
		t.Fatal("registration succeeded although n3 refuses its shard")
	}
	for name, url := range healthy {
		resp := do(t, http.MethodGet, url+"/v1/graphs", nil)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(raw), cluster.ShardIDSuffix) {
			t.Fatalf("node %s still lists a shard after the failed registration: %s", name, raw)
		}
	}
}
