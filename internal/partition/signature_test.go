package partition

import (
	"math/rand"
	"strings"
	"testing"

	"kplist/internal/graph"
)

// TestSignatureRank checks that SigIndex ranks each signature at its
// position in Signatures, for every shape a registration can take, and
// that the enumeration has C(t+p−1, p) entries.
func TestSignatureRank(t *testing.T) {
	for tt := 1; tt <= 5; tt++ {
		for p := 1; p <= 6; p++ {
			sigs := Signatures(tt, p)
			if n := numSignatures(tt, p, 1<<20); len(sigs) != n {
				t.Fatalf("t=%d p=%d: %d signatures, want C(t+p-1,p) = %d", tt, p, len(sigs), n)
			}
			ix := NewSigIndex(tt, p)
			for i, sig := range sigs {
				s32 := make([]int32, len(sig))
				for j, part := range sig {
					s32[j] = int32(part)
				}
				if r := ix.Rank(s32); r != i {
					t.Fatalf("t=%d p=%d: rank(%v) = %d, want %d", tt, p, sig, r, i)
				}
			}
		}
	}
}

// TestFilterMatcherOwns checks Owns against a direct computation: the
// rank of the clique's sorted part multiset, looked up in the owned set.
func TestFilterMatcherOwns(t *testing.T) {
	const n, parts, p, seed = 200, 3, 3, 77
	rng := rand.New(rand.NewSource(5))
	sigs := Signatures(parts, p)
	owned := make([]bool, len(sigs))
	for r := range owned {
		owned[r] = rng.Intn(2) == 0
	}
	m := NewFilter(seed, parts, owned).Matcher(n, p)
	partOf := Random(n, parts, rand.New(rand.NewSource(seed))).PartOf
	ix := NewSigIndex(parts, p)
	kept := 0
	for i := 0; i < 2000; i++ {
		c := graph.Clique{graph.V(rng.Intn(n)), graph.V(rng.Intn(n)), graph.V(rng.Intn(n))}
		sig := []int32{partOf[c[0]], partOf[c[1]], partOf[c[2]]}
		for a := range sig {
			for b := a + 1; b < len(sig); b++ {
				if sig[b] < sig[a] {
					sig[a], sig[b] = sig[b], sig[a]
				}
			}
		}
		want := owned[ix.Rank(sig)]
		if got := m.Owns(c); got != want {
			t.Fatalf("Owns(%v) = %v, want %v (signature %v)", c, got, want, sig)
		}
		if want {
			kept++
		}
	}
	if kept == 0 || kept == 2000 {
		t.Fatalf("degenerate test: %d of 2000 owned", kept)
	}

	// One part: every clique has signature rank 0.
	for _, own := range []bool{true, false} {
		m := NewFilter(seed, 1, []bool{own}).Matcher(n, 5)
		if got := m.Owns(graph.Clique{1, 2, 3, 4, 5}); got != own {
			t.Fatalf("T=1 owned=%v: Owns = %v", own, got)
		}
	}
}

func TestFilterValidate(t *testing.T) {
	// p=3 over 3 parts: C(5,3) = 10 signatures, 2 mask bytes.
	ok := NewFilter(1, 3, make([]bool, 10))
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid filter rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		f    Filter
		p    int
		want string
	}{
		{"no parts", Filter{T: 0, Owned: "0000"}, 3, "T ≥ 1"},
		{"negative parts", Filter{T: -2, Owned: "0000"}, 3, "T ≥ 1"},
		{"short mask", Filter{T: 3, Owned: "00"}, 3, "hex digits"},
		{"long mask", Filter{T: 3, Owned: "000000"}, 3, "hex digits"},
		{"empty mask", Filter{T: 3}, 3, "hex digits"},
		{"mask for another p", ok, 5, "hex digits"},
		{"not hex", Filter{T: 3, Owned: "zz00"}, 3, "mask"},
		{"stray bit", Filter{T: 3, Owned: "0004"}, 3, "past the last"},
		{"huge parts", Filter{T: 1 << 40, Owned: "00"}, 3, "hex digits"},
		{"huge p", Filter{T: 2, Owned: "00"}, 1 << 40, "hex digits"},
		{"p below 1", ok, 0, "p ≥ 1"},
	} {
		err := tc.f.Validate(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if !(Filter{}).IsZero() || ok.IsZero() {
		t.Error("IsZero")
	}
}
