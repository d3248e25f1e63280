package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"kplist"
)

// TestDifferentialOwnerRoutedAllFamilies runs every workload family
// through a loopback 3-node cluster (R=2) behind the gateway and demands
// the clique NDJSON stream — and the stream after a mutation batch — be
// byte-identical to a standalone kplistd serving the same spec.
func TestDifferentialOwnerRoutedAllFamilies(t *testing.T) {
	h := newHarness(t, 3, 2, 17)
	for fi, family := range kplist.WorkloadFamilies() {
		family := family
		t.Run(family, func(t *testing.T) {
			n := 120
			seed := int64(100 + fi)
			body := workloadBody(family, n, seed)
			_, meta := postJSON(t, h.gw.URL+"/v1/graphs", body)
			id, _ := meta["id"].(string)
			if id == "" {
				t.Fatalf("cluster register failed: %v", meta)
			}
			_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
			refID := refMeta["id"].(string)

			for _, p := range []int{3, 4} {
				got := stream(t, h.gw.URL, id, p, "&algo=truth&order=lex")
				want := stream(t, h.ref.URL, refID, p, "&algo=truth&order=lex")
				if got != want {
					t.Fatalf("family %s p=%d: cluster stream differs from single node", family, p)
				}
			}

			// Same mutation batch on both sides, then compare again.
			gn := int(refMeta["n"].(float64))
			rng := rand.New(rand.NewSource(seed))
			muts := make([]map[string]any, 16)
			for i := range muts {
				op := "add"
				if i%4 == 3 {
					op = "remove"
				}
				u, v := rng.Intn(gn), rng.Intn(gn)
				if u == v {
					v = (v + 1) % gn
				}
				muts[i] = map[string]any{"op": op, "u": u, "v": v}
			}
			pb, _ := json.Marshal(map[string]any{"mutations": muts})
			for _, target := range []string{h.gw.URL + "/v1/graphs/" + id, h.ref.URL + "/v1/graphs/" + refID} {
				resp := do(t, http.MethodPatch, target+"/edges", pb)
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					t.Fatalf("patch %s: %d: %s", target, resp.StatusCode, raw)
				}
				resp.Body.Close()
			}
			got := stream(t, h.gw.URL, id, 3, "&algo=truth&order=lex")
			want := stream(t, h.ref.URL, refID, 3, "&algo=truth&order=lex")
			if got != want {
				t.Fatalf("family %s: post-mutation cluster stream differs from single node", family)
			}
		})
	}
}

// TestDifferentialPartitionedAllFamilies registers every family in
// partitioned mode at several shard counts and demands the scatter–gather
// merged stream be byte-identical to the single-node stream.
func TestDifferentialPartitionedAllFamilies(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newHarness(t, shards, 2, int64(20+shards))
			for fi, family := range kplist.WorkloadFamilies() {
				n := 100
				seed := int64(200 + fi)
				body := workloadBody(family, n, seed)
				buf, _ := json.Marshal(body)
				resp := do(t, http.MethodPost, h.gw.URL+"/v1/graphs?partitioned=1&p=3", buf)
				if resp.StatusCode != http.StatusCreated {
					raw, _ := io.ReadAll(resp.Body)
					t.Fatalf("family %s: partitioned register: %d: %s", family, resp.StatusCode, raw)
				}
				var meta map[string]any
				json.NewDecoder(resp.Body).Decode(&meta)
				resp.Body.Close()
				id := meta["id"].(string)
				if part, _ := meta["partitioned"].(bool); !part {
					t.Fatalf("family %s: meta not marked partitioned: %v", family, meta)
				}

				_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
				refID := refMeta["id"].(string)

				for _, algo := range []string{"truth", ""} {
					q := "&algo=" + algo
					if algo == "" {
						q = ""
					}
					got := stream(t, h.gw.URL, id, 3, q)
					want := stream(t, h.ref.URL, refID, 3, q+"&order=lex")
					if got != want {
						t.Fatalf("family %s shards=%d algo=%q: scatter stream (%d bytes) differs from single node (%d bytes)",
							family, shards, algo, len(got), len(want))
					}
				}

				// Mutations are rejected in partitioned mode.
				pb, _ := json.Marshal(map[string]any{"mutations": []map[string]any{{"op": "add", "u": 0, "v": 1}}})
				resp = do(t, http.MethodPatch, h.gw.URL+"/v1/graphs/"+id+"/edges", pb)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("family %s: partitioned patch answered %d, want 400", family, resp.StatusCode)
				}
				resp.Body.Close()

				// Wrong p is rejected (the partition is p-specific).
				wrong := do(t, http.MethodGet, fmt.Sprintf("%s/v1/graphs/%s/cliques?p=4&stream=1", h.gw.URL, id), nil)
				raw, _ := io.ReadAll(wrong.Body)
				wrong.Body.Close()
				if !strings.Contains(string(raw), "differs from the partitioned registration") {
					t.Fatalf("family %s: wrong-p query did not report the mismatch: %s", family, raw)
				}

				// The JSON document form is not served: a typed 400, not
				// a 200 NDJSON stream.
				doc := do(t, http.MethodGet, fmt.Sprintf("%s/v1/graphs/%s/cliques?p=3&stream=0", h.gw.URL, id), nil)
				raw, _ = io.ReadAll(doc.Body)
				doc.Body.Close()
				if doc.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "stream=0 is not served") {
					t.Fatalf("family %s: stream=0 answered %d: %s", family, doc.StatusCode, raw)
				}
			}
		})
	}
}

// TestDifferentialPartitionedFailover kills one node of a 3-shard
// partitioned graph (R=2, so every shard has a replica) and demands the
// scatter stream stay byte-identical.
func TestDifferentialPartitionedFailover(t *testing.T) {
	h := newHarness(t, 3, 2, 31)
	body := workloadBody("stochastic-block", 140, 41)
	buf, _ := json.Marshal(body)
	resp := do(t, http.MethodPost, h.gw.URL+"/v1/graphs?partitioned=1&p=3", buf)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("partitioned register: %d: %s", resp.StatusCode, raw)
	}
	var meta map[string]any
	json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	id := meta["id"].(string)

	_, refMeta := postJSON(t, h.ref.URL+"/v1/graphs", body)
	refID := refMeta["id"].(string)
	want := stream(t, h.ref.URL, refID, 3, "&algo=truth&order=lex")
	if got := stream(t, h.gw.URL, id, 3, "&algo=truth"); got != want {
		t.Fatal("scatter stream differs before failover")
	}
	if want == "" {
		t.Fatal("empty stream — failover comparison is vacuous")
	}

	h.nodes[h.names[0]].Close()
	if got := stream(t, h.gw.URL, id, 3, "&algo=truth"); got != want {
		t.Fatal("scatter stream differs after killing one node")
	}

	// Delete cleans up the surviving shard replicas.
	resp = do(t, http.MethodDelete, h.gw.URL+"/v1/graphs/"+id, nil)
	resp.Body.Close()
	for _, name := range h.names[1:] {
		r := do(t, http.MethodGet, h.nodes[name].URL+"/v1/graphs", nil)
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if strings.Contains(string(raw), id) {
			t.Fatalf("node %s still holds shards of %s after delete", name, id)
		}
	}
}
