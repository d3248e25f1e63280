package server_test

import (
	"net/http"
	"testing"

	"kplist/internal/obs/obstest"
	"kplist/internal/server"
)

// TestMetricsSeriesGolden pins the node's /metrics series set: every TYPE
// line and every sample's name and labels after a scripted mix of
// register, query, patch, estimate and replica apply on a durable node.
// It also checks that each family has exactly one TYPE line, ahead of
// its samples.
// Regenerate with go test ./internal/server -run TestMetricsSeriesGolden -update.
func TestMetricsSeriesGolden(t *testing.T) {
	_, ts := newTestServer(t, func(c *server.Config) { c.DataDir = t.TempDir() })
	id, _ := registerWorkload(t, ts.URL, 60, 1)
	if resp, body := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query", map[string]any{"p": 4}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+id+"/edges", mutBody(mut("add", 0, 1))); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/graphs/"+id+"/query?mode=estimate", map[string]any{"p": 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	if resp, body := forward(t, http.MethodPatch, ts.URL+"/v1/graphs/"+id+"/replica", mutBody(mut("add", 0, 2))); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica apply: %d %s", resp.StatusCode, body)
	}
	_, body := get(t, ts.URL+"/metrics")
	obstest.CheckTypes(t, string(body))
	obstest.Golden(t, "testdata/metrics_series.golden", obstest.Series(string(body)))
}
