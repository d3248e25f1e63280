package partition

import "testing"

// sortedMultisets enumerates every sorted p-multiset over parts [0,t) in
// lexicographic order.
func sortedMultisets(t, p int) [][]int32 {
	var out [][]int32
	sig := make([]int32, p)
	var rec func(pos int, lo int32)
	rec = func(pos int, lo int32) {
		if pos == p {
			out = append(out, append([]int32(nil), sig...))
			return
		}
		for part := lo; part < int32(t); part++ {
			sig[pos] = part
			rec(pos+1, part)
		}
	}
	rec(0, 0)
	return out
}

// TestSignatureRank checks that SigIndex ranks each signature at its
// lexicographic position among the sorted multisets, for t ≤ 5 parts and
// p ≤ 6, and that Count is C(t+p−1, p).
func TestSignatureRank(t *testing.T) {
	for tt := 1; tt <= 5; tt++ {
		for p := 1; p <= 6; p++ {
			sigs := sortedMultisets(tt, p)
			binom := 1 // C(tt+p−1, p)
			for i := 1; i <= p; i++ {
				binom = binom * (tt - 1 + i) / i
			}
			ix := NewSigIndex(tt, p)
			if len(sigs) != binom || ix.Count() != binom {
				t.Fatalf("t=%d p=%d: %d signatures, Count %d, want C(t+p-1,p) = %d", tt, p, len(sigs), ix.Count(), binom)
			}
			for i, sig := range sigs {
				if r := ix.Rank(sig); r != i {
					t.Fatalf("t=%d p=%d: rank(%v) = %d, want %d", tt, p, sig, r, i)
				}
			}
		}
	}
}
