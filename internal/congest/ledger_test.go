package congest

import (
	"strings"
	"sync"
	"testing"
)

func TestLedgerChargeAndTotals(t *testing.T) {
	var l Ledger
	l.Charge("a", 10, 100)
	l.Charge("a", 5, 50)
	l.Charge("b", 2, 20)
	if got := l.Rounds(); got != 17 {
		t.Errorf("Rounds = %d, want 17", got)
	}
	if got := l.Messages(); got != 170 {
		t.Errorf("Messages = %d, want 170", got)
	}
	pa := l.Phase("a")
	if pa.Rounds != 15 || pa.Messages != 150 || pa.Calls != 2 {
		t.Errorf("phase a = %+v", pa)
	}
	if l.Phase("absent").Rounds != 0 {
		t.Error("absent phase should be zero")
	}
}

func TestLedgerChargeMax(t *testing.T) {
	var l Ledger
	l.ChargeMax("par", 10, 100)
	l.ChargeMax("par", 7, 70)
	l.ChargeMax("par", 12, 30)
	pc := l.Phase("par")
	if pc.Rounds != 12 {
		t.Errorf("max rounds = %d, want 12", pc.Rounds)
	}
	if pc.Messages != 200 {
		t.Errorf("messages = %d, want 200 (additive)", pc.Messages)
	}
}

func TestLedgerMerge(t *testing.T) {
	var a, b Ledger
	a.Charge("x", 1, 2)
	b.Charge("x", 3, 4)
	b.Charge("y", 5, 6)
	a.Merge(&b)
	if a.Rounds() != 9 || a.Messages() != 12 {
		t.Errorf("merged totals = %d rounds %d msgs", a.Rounds(), a.Messages())
	}
	if a.Phase("x").Rounds != 4 {
		t.Error("merge should add phase rounds")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	var l Ledger
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Charge("p", 1, 1)
			}
		}()
	}
	wg.Wait()
	if l.Rounds() != 5000 {
		t.Errorf("concurrent rounds = %d, want 5000", l.Rounds())
	}
}

func TestLedgerNegativePanics(t *testing.T) {
	var l Ledger
	defer func() {
		if recover() == nil {
			t.Error("negative charge should panic")
		}
	}()
	l.Charge("bad", -1, 0)
}

func TestLedgerString(t *testing.T) {
	var l Ledger
	l.Charge("decomp", 100, 1000)
	l.Charge("listing", 300, 9000)
	s := l.String()
	if !strings.Contains(s, "decomp") || !strings.Contains(s, "TOTAL") {
		t.Errorf("String output missing content:\n%s", s)
	}
	// listing (more rounds) should be printed before decomp.
	if strings.Index(s, "listing") > strings.Index(s, "decomp") {
		t.Error("phases should be sorted by rounds descending")
	}
}

func TestCostModelHelpers(t *testing.T) {
	cm := UnitCosts()
	if cm.BroadcastRounds(17) != 17 {
		t.Error("broadcast rounds")
	}
	if cm.RouteRounds(1000, 100, 10) != 10 {
		t.Error("route rounds = load/minDeg")
	}
	if cm.RouteRounds(1000, 0, 10) != 1 {
		t.Error("route of nothing should still cost 1 round")
	}
	if cm.RouteRounds(1000, 5, 0) != 5 {
		t.Error("minDeg clamp to 1")
	}
	if cm.CliqueRounds(11, 100) != 10 {
		t.Error("clique rounds = ceil(load/(k-1))")
	}
	if cm.CliqueRounds(1, 5) != 5 {
		t.Error("degenerate single-node clique")
	}
	if got := cm.DecompositionRounds(256, 0.75); got != 4 {
		t.Errorf("decomposition rounds = %d, want 256^0.25 = 4", got)
	}
	if UnitCosts().DecompositionRounds(1, 0.5) != 1 {
		t.Error("tiny n decomposition")
	}
}

func TestPaperCostsAddLogs(t *testing.T) {
	pm := PaperCosts()
	um := UnitCosts()
	if pm.RouteRounds(1024, 100, 10) != 10*um.RouteRounds(1024, 100, 10) {
		t.Errorf("paper route should be log2(1024)=10x unit: %d vs %d",
			pm.RouteRounds(1024, 100, 10), um.RouteRounds(1024, 100, 10))
	}
}

func TestLog2CeilAndCeilDiv(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(0, 5) != 0 || CeilDiv(-3, 5) != 0 {
		t.Error("CeilDiv wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv by zero should panic")
		}
	}()
	CeilDiv(1, 0)
}
