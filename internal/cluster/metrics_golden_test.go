package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"kplist/internal/obs/obstest"
)

// TestGatewayMetricsSeriesGolden pins the gateway's /metrics series set:
// every TYPE line and every sample's name and labels after an R=2
// register, a read, and a partitioned registration and scatter on a
// 3-node loopback cluster. It also checks that each family has exactly one TYPE line,
// ahead of its samples: the labelled member gauges once repeated it per
// member. Regenerate with
// go test ./internal/cluster -run TestGatewayMetricsSeriesGolden -update.
func TestGatewayMetricsSeriesGolden(t *testing.T) {
	h := newHarness(t, 3, 2, 7)
	st, meta := postJSON(t, h.gw.URL+"/v1/graphs", workloadBody("planted-clique", 100, 11))
	if st != http.StatusCreated {
		t.Fatalf("register: %d %v", st, meta)
	}
	stream(t, h.gw.URL, meta["id"].(string), 3, "")

	buf, _ := json.Marshal(workloadBody("grid", 64, 1))
	pmeta, err := h.client.RegisterPartitioned(context.Background(), buf, 3)
	if err != nil {
		t.Fatalf("partitioned register: %v", err)
	}
	stream(t, h.gw.URL, pmeta.ID, 3, "")

	resp := do(t, http.MethodGet, h.gw.URL+"/metrics", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	obstest.CheckTypes(t, string(body))
	obstest.Golden(t, "testdata/metrics_series.golden", obstest.Series(string(body)))
}
