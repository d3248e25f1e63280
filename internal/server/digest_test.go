package server_test

// Node-side self-healing surface (DESIGN.md §13): the applied-batch
// sequence counter, the /digest and /export endpoints, and the replica
// apply seq discipline (idempotent duplicates, refused gaps) the
// gateway's hinted handoff and anti-entropy sweeper build on.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"kplist/internal/cluster"
	"kplist/internal/server"
)

type digestDoc struct {
	Graph string `json:"graph"`
	Seq   uint64 `json:"seq"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Hash  string `json:"hash"`
}

func getDigest(t *testing.T, base, id string) (digestDoc, int) {
	t.Helper()
	resp, body := get(t, base+"/v1/graphs/"+id+"/digest")
	var d digestDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatalf("bad digest body %s: %v", body, err)
		}
	}
	return d, resp.StatusCode
}

func patchBody(ops ...[3]any) map[string]any {
	muts := make([]map[string]any, len(ops))
	for i, op := range ops {
		muts[i] = map[string]any{"op": op[0], "u": op[1], "v": op[2]}
	}
	return map[string]any{"mutations": muts}
}

func TestDigestSeqAdvancesPerEffectiveBatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	reg := map[string]any{"id": "cdig01", "n": 4, "edges": [][2]int{{0, 1}, {1, 2}}}
	if resp, body := postJSON(t, ts.URL+"/v1/graphs", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	d0, st := getDigest(t, ts.URL, "cdig01")
	if st != http.StatusOK || d0.Seq != 0 || d0.N != 4 || d0.M != 2 || len(d0.Hash) != 16 {
		t.Fatalf("fresh digest %+v (status %d)", d0, st)
	}

	// An effective batch advances the counter and changes the hash.
	resp, body := patchJSON(t, ts.URL+"/v1/graphs/cdig01/edges",
		patchBody([3]any{"add", 2, 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(server.SeqHeader); got != "1" {
		t.Fatalf("patch response %s = %q, want 1", server.SeqHeader, got)
	}
	var pr struct {
		Seq uint64 `json:"seq"`
	}
	json.Unmarshal(body, &pr)
	if pr.Seq != 1 {
		t.Fatalf("patch body seq = %d, want 1", pr.Seq)
	}
	d1, _ := getDigest(t, ts.URL, "cdig01")
	if d1.Seq != 1 || d1.Hash == d0.Hash {
		t.Fatalf("post-batch digest %+v should advance seq and change hash (was %+v)", d1, d0)
	}

	// A no-op batch (re-adding an existing edge) leaves both untouched —
	// the same discipline as the WAL, which never logs no-op batches.
	resp, _ = patchJSON(t, ts.URL+"/v1/graphs/cdig01/edges",
		patchBody([3]any{"add", 0, 1}))
	if got := resp.Header.Get(server.SeqHeader); got != "1" {
		t.Fatalf("no-op batch moved the seq header to %q", got)
	}
	d2, _ := getDigest(t, ts.URL, "cdig01")
	if d2.Seq != 1 || d2.Hash != d1.Hash {
		t.Fatalf("no-op batch changed the digest: %+v -> %+v", d1, d2)
	}

	if _, st := getDigest(t, ts.URL, "nope"); st != http.StatusNotFound {
		t.Fatalf("digest of a missing graph: %d, want 404", st)
	}
}

// replicaApply sends a sequence-tagged replica apply.
func replicaApply(t *testing.T, base, id string, seq uint64, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	return replicaApplyHeader(t, base, id, strconv.FormatUint(seq, 10), body)
}

// replicaApplyHeader sends a replica apply whose X-Kplist-Seq header
// carries seq verbatim.
func replicaApplyHeader(t *testing.T, base, id, seq string, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	buf, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/graphs/"+id+"/replica", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	req.Header.Set(server.SeqHeader, seq)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestReplicaApplySeqDiscipline(t *testing.T) {
	_, ts := newTestServer(t, nil)
	reg := map[string]any{"id": "crep01", "n": 4, "edges": [][2]int{{0, 1}}}
	if resp, _ := postJSON(t, ts.URL+"/v1/graphs", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}

	// In-order apply adopts the owner's number.
	resp, body := replicaApply(t, ts.URL, "crep01", 1, patchBody([3]any{"add", 1, 2}))
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.SeqHeader) != "1" {
		t.Fatalf("seq-1 apply: %d %s (hdr %q)", resp.StatusCode, body, resp.Header.Get(server.SeqHeader))
	}
	d1, _ := getDigest(t, ts.URL, "crep01")

	// Replaying the same batch (hinted-handoff replay, fan-out retry) is
	// acknowledged without re-applying.
	resp, body = replicaApply(t, ts.URL, "crep01", 1, patchBody([3]any{"add", 1, 2}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate apply: %d %s", resp.StatusCode, body)
	}
	var dup struct {
		Duplicate bool   `json:"duplicate"`
		Seq       uint64 `json:"seq"`
	}
	json.Unmarshal(body, &dup)
	if !dup.Duplicate || dup.Seq != 1 {
		t.Fatalf("duplicate apply body %s: want duplicate=true seq=1", body)
	}
	if d, _ := getDigest(t, ts.URL, "crep01"); d.Hash != d1.Hash || d.Seq != 1 {
		t.Fatalf("duplicate apply mutated state: %+v -> %+v", d1, d)
	}

	// A gap is refused: applying it would bury the missed batches.
	resp, body = replicaApply(t, ts.URL, "crep01", 3, patchBody([3]any{"add", 2, 3}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gapped apply: %d %s, want 409", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "seq gap") {
		t.Fatalf("gap refusal body %s should name the gap", body)
	}

	// The next in-order batch still lands.
	if resp, _ := replicaApply(t, ts.URL, "crep01", 2, patchBody([3]any{"add", 2, 3})); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq-2 apply after refused gap: %d", resp.StatusCode)
	}

	// Both outcomes are counted on /metrics.
	_, mb := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"kplistd_replica_duplicates_total 1",
		"kplistd_replica_seq_gaps_total 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestReplicaApplyRejectsMalformedSeq: a seq header that is present but
// not a base-10 uint64 is refused before anything is applied. Read as 0,
// it would skip the duplicate and gap checks, and the replica would
// advance its own counter as if it were the owner.
func TestReplicaApplyRejectsMalformedSeq(t *testing.T) {
	_, ts := newTestServer(t, nil)
	reg := map[string]any{"id": "crep02", "n": 4, "edges": [][2]int{{0, 1}}}
	if resp, _ := postJSON(t, ts.URL+"/v1/graphs", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	for _, seq := range []string{"abc", "-1", "18446744073709551616"} {
		resp, body := replicaApplyHeader(t, ts.URL, "crep02", seq, patchBody([3]any{"add", 1, 2}))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seq %q: status %d %s, want 400", seq, resp.StatusCode, body)
		}
		if d, _ := getDigest(t, ts.URL, "crep02"); d.M != 1 || d.Seq != 0 {
			t.Fatalf("seq %q: refused apply changed the graph: %+v", seq, d)
		}
	}
	// The fence is intact: the owner's first batch still lands as seq 1.
	resp, body := replicaApply(t, ts.URL, "crep02", 1, patchBody([3]any{"add", 1, 2}))
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.SeqHeader) != "1" {
		t.Fatalf("seq-1 apply: %d %s (hdr %q)", resp.StatusCode, body, resp.Header.Get(server.SeqHeader))
	}
}

func TestExportInstallRoundtrip(t *testing.T) {
	_, src := newTestServer(t, nil)
	_, dst := newTestServer(t, nil)

	reg := map[string]any{"id": "cexp01", "name": "exported", "n": 5, "edges": [][2]int{{0, 1}, {1, 2}}}
	if resp, _ := postJSON(t, src.URL+"/v1/graphs", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	for _, ops := range [][3]any{{"add", 2, 3}, {"add", 3, 4}} {
		if resp, _ := patchJSON(t, src.URL+"/v1/graphs/cexp01/edges", patchBody(ops)); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch: %d", resp.StatusCode)
		}
	}
	srcDigest, _ := getDigest(t, src.URL, "cexp01")
	if srcDigest.Seq != 2 {
		t.Fatalf("source seq = %d, want 2", srcDigest.Seq)
	}

	// Export is a register document plus the sequence position.
	resp, body := get(t, src.URL+"/v1/graphs/cexp01/export")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %s", resp.StatusCode, body)
	}
	var doc map[string]any
	json.Unmarshal(body, &doc)
	if doc["id"] != "cexp01" || doc["seq"].(float64) != 2 || doc["name"] != "exported" {
		t.Fatalf("export doc %s", body)
	}

	// Installing it verbatim on another node reproduces state AND seq.
	ir, err := http.Post(dst.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ir.Body.Close()
	if ir.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", ir.StatusCode)
	}
	if got := ir.Header.Get(server.SeqHeader); got != "2" {
		t.Fatalf("install response %s = %q, want 2", server.SeqHeader, got)
	}
	dstDigest, _ := getDigest(t, dst.URL, "cexp01")
	if dstDigest.Seq != srcDigest.Seq || dstDigest.Hash != srcDigest.Hash {
		t.Fatalf("installed digest %+v != source %+v", dstDigest, srcDigest)
	}

	// The installed replica resumes the batch stream where the owner was:
	// the next in-order seq applies, the one after it gaps.
	if resp, _ := replicaApply(t, dst.URL, "cexp01", 3, patchBody([3]any{"add", 0, 2})); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-install seq-3 apply: %d", resp.StatusCode)
	}
	if resp, _ := replicaApply(t, dst.URL, "cexp01", 5, patchBody([3]any{"add", 0, 3})); resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-install gapped apply: %d, want 409", resp.StatusCode)
	}

	// Workload registrations ignore a smuggled seq — generated graphs
	// start their history at zero.
	wl := map[string]any{"id": "cexp02", "seq": 9,
		"workload": map[string]any{"family": "grid", "n": 16, "seed": 1}}
	if resp, _ := postJSON(t, dst.URL+"/v1/graphs", wl); resp.StatusCode != http.StatusCreated {
		t.Fatalf("workload register: %d", resp.StatusCode)
	}
	if d, _ := getDigest(t, dst.URL, "cexp02"); d.Seq != 0 {
		t.Fatalf("workload graph adopted seq %d, want 0", d.Seq)
	}
}
