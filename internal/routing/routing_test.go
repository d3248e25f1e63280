package routing

import (
	"testing"

	"kplist/internal/congest"
	"kplist/internal/expander"
	"kplist/internal/graph"
)

// testCluster builds a decomposition of K_k and returns its single cluster.
func testCluster(t *testing.T, k int) *expander.Cluster {
	t.Helper()
	g := graph.Complete(k)
	var ledger congest.Ledger
	d, err := expander.Decompose(g.N(), graph.NewEdgeList(g.Edges()),
		expander.Params{Threshold: 2, Seed: 1}, congest.UnitCosts(), &ledger)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(d.Clusters) != 1 {
		t.Fatalf("want 1 cluster, got %d", len(d.Clusters))
	}
	return d.Clusters[0]
}

func TestDeliverBasic(t *testing.T) {
	cl := testCluster(t, 10)
	r := NewRouter(cl, 10, congest.UnitCosts())
	var ledger congest.Ledger
	envs := []Envelope[int]{
		{From: 0, To: 5, Payload: 42},
		{From: 1, To: 5, Payload: 43},
		{From: 5, To: 0, Payload: 44},
	}
	inbox, err := Deliver(r, &ledger, "test", envs)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if len(inbox[5]) != 2 {
		t.Errorf("node 5 got %d messages, want 2", len(inbox[5]))
	}
	if len(inbox[0]) != 1 || inbox[0][0].Payload != 44 {
		t.Errorf("node 0 inbox = %v", inbox[0])
	}
	// Node 5 sends 1 + receives 2 = load 3; minDeg = 9 → 1 round.
	if got := ledger.Phase("test").Rounds; got != 1 {
		t.Errorf("rounds = %d, want 1", got)
	}
	if got := ledger.Phase("test").Messages; got != 3 {
		t.Errorf("messages = %d, want 3", got)
	}
}

func TestDeliverRoundsScaleWithLoad(t *testing.T) {
	cl := testCluster(t, 10) // minDeg 9
	r := NewRouter(cl, 10, congest.UnitCosts())
	var ledger congest.Ledger
	var envs []Envelope[int]
	// Node 0 receives 90 messages: load 90+... senders spread evenly.
	for i := 0; i < 90; i++ {
		envs = append(envs, Envelope[int]{From: graph.V(1 + i%9), To: 0, Payload: i})
	}
	if _, err := Deliver(r, &ledger, "load", envs); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	// Max load = 90 (receiver), minDeg 9 → 10 rounds.
	if got := ledger.Phase("load").Rounds; got != 10 {
		t.Errorf("rounds = %d, want 10", got)
	}
}

func TestDeliverRejectsOutsiders(t *testing.T) {
	cl := testCluster(t, 8)
	r := NewRouter(cl, 20, congest.UnitCosts())
	var ledger congest.Ledger
	if _, err := Deliver(r, &ledger, "x", []Envelope[int]{{From: 15, To: 0}}); err == nil {
		t.Error("outside sender should be rejected")
	}
	if _, err := Deliver(r, &ledger, "x", []Envelope[int]{{From: 0, To: 15}}); err == nil {
		t.Error("outside recipient should be rejected")
	}
}

func TestChargeMaxAcrossParallelClusters(t *testing.T) {
	cl := testCluster(t, 10)
	r := NewRouter(cl, 10, congest.UnitCosts())
	var ledger congest.Ledger
	// Two parallel deliveries under the same phase name: rounds take the
	// max (parallel clusters), messages add.
	if _, err := Deliver(r, &ledger, "par", mkEnvs(30, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := Deliver(r, &ledger, "par", mkEnvs(90, 9)); err != nil {
		t.Fatal(err)
	}
	pc := ledger.Phase("par")
	if pc.Rounds != 10 {
		t.Errorf("parallel rounds = %d, want max(4,10)=10", pc.Rounds)
	}
	if pc.Messages != 120 {
		t.Errorf("messages = %d, want 120", pc.Messages)
	}
}

func mkEnvs(n, senders int) []Envelope[int] {
	envs := make([]Envelope[int], 0, n)
	for i := 0; i < n; i++ {
		envs = append(envs, Envelope[int]{From: graph.V(1 + i%senders), To: 0, Payload: i})
	}
	return envs
}

func TestChargeLoads(t *testing.T) {
	cl := testCluster(t, 10)
	r := NewRouter(cl, 10, congest.UnitCosts())
	var ledger congest.Ledger
	sent := map[graph.V]int64{0: 45}
	recv := map[graph.V]int64{1: 25, 2: 20}
	if err := r.ChargeLoads(&ledger, "manual", sent, recv); err != nil {
		t.Fatalf("ChargeLoads: %v", err)
	}
	// max load = 45; minDeg 9 → 5 rounds.
	if got := ledger.Phase("manual").Rounds; got != 5 {
		t.Errorf("rounds = %d, want 5", got)
	}
	if err := r.ChargeLoads(&ledger, "bad", map[graph.V]int64{99: 1}, nil); err == nil {
		t.Error("outside sender should be rejected")
	}
}

func TestResponsibilityPartition(t *testing.T) {
	cl := testCluster(t, 8)
	n := 100
	rs := NewResponsibility(cl, n)
	// Every graph vertex has exactly one owner, owners are cluster members,
	// and ranges tile [0, n).
	counts := make(map[graph.V]int)
	for w := 0; w < n; w++ {
		owner := rs.OwnerOf(graph.V(w))
		if !cl.Contains(owner) {
			t.Fatalf("owner %d of %d not in cluster", owner, w)
		}
		counts[owner]++
	}
	total := 0
	for i := 0; i < cl.K(); i++ {
		lo, hi := rs.Range(i)
		member := cl.ByNewID(i)
		if counts[member] != int(hi-lo) {
			t.Errorf("member %d owns %d vertices, range says %d", member, counts[member], hi-lo)
		}
		total += int(hi - lo)
		for w := lo; w < hi; w++ {
			if rs.OwnerOf(w) != member {
				t.Errorf("OwnerOf(%d) = %d, want %d", w, rs.OwnerOf(w), member)
			}
		}
	}
	if total != n {
		t.Errorf("ranges cover %d vertices, want %d", total, n)
	}
	// Balance: every member owns n/k ± 1.
	for _, c := range counts {
		if c < n/8-1 || c > n/8+1 {
			t.Errorf("imbalanced ownership: %d", c)
		}
	}
}
