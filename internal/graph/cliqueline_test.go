package graph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// TestAppendLineMatchesJSON pins the encoder to json.Marshal byte for byte
// at every digit-count boundary the two-digit formatter branches on.
func TestAppendLineMatchesJSON(t *testing.T) {
	cases := []Clique{
		{},
		{0},
		{0, 9, 10, 99, 100},
		{1<<31 - 1},
		{999, 1000, 9999, 10000, 99999, 100000, 123456789, 1000000000},
		{-1, -10, -100, -1 << 31},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		c := make(Clique, 1+rng.Intn(6))
		for i := range c {
			c[i] = V(rng.Int31() >> rng.Intn(31))
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := c.AppendLine(nil); !bytes.Equal(got, want) {
			t.Errorf("AppendLine(%v) = %q, json.Marshal gives %q", []V(c), got, want)
		}
		if n := len(c.AppendLine(nil)); n > MaxLineLen(len(c)) {
			t.Errorf("line of %v is %d bytes, over MaxLineLen %d", []V(c), n, MaxLineLen(len(c)))
		}
		if n := len(want); c.LineLen() != n {
			t.Errorf("LineLen(%v) = %d, the line is %d bytes", []V(c), c.LineLen(), n)
		}
		pre := []byte("prefix")
		if got := c.AppendLine(pre); !bytes.HasPrefix(got, pre) {
			t.Errorf("AppendLine(%v) overwrote the buffer it appends to", []V(c))
		}
	}
}

// TestParseCliqueLineBounds covers the decoder's rejections; every one of
// them is a line a well-behaved node never writes.
func TestParseCliqueLineBounds(t *testing.T) {
	got, err := ParseCliqueLine([]byte("[3,1,42]\n"), nil, 43)
	if err != nil || !slices.Equal(got, Clique{3, 1, 42}) {
		t.Fatalf("parsed %v, %v", got, err)
	}
	if got, err := ParseCliqueLine([]byte("[]"), nil, 1); err != nil || len(got) != 0 {
		t.Fatalf("empty clique parsed as %v, %v", got, err)
	}
	if got, err := ParseCliqueLine([]byte("[2147483647]"), nil, 1<<40); err != nil || got[0] != 1<<31-1 {
		t.Fatalf("max vertex parsed as %v, %v", got, err)
	}
	for _, bad := range []struct {
		line string
		n    int
	}{
		{"", 10}, {"\n", 10}, {"[", 10}, {"3,1", 10}, {"[1,2", 10}, {"1,2]", 10},
		{"[a,b]", 10}, {"[1,]", 10}, {"[,1]", 10}, {"[1,,2]", 10},
		{"[ 1,2]", 10}, {"[1, 2]", 10}, {"[1,2]\r", 10}, {"[1.0]", 10},
		{"[01,2]", 10}, {"[00]", 10}, // leading zeros are not canonical
		{"[-1,2]", 10}, {"[1,-2]", 10}, // negative
		{"[10]", 10}, {"[0,5]", 5}, {"[0]", 0}, {"[0]", -3}, // outside [0,n)
		{"[2147483648]", 1 << 40}, {"[99999999999999999999999]", 1 << 40}, // overflow
	} {
		if got, err := ParseCliqueLine([]byte(bad.line), nil, bad.n); err == nil {
			t.Errorf("line %q with n=%d should fail, parsed %v", bad.line, bad.n, got)
		}
	}
}

// FuzzCliqueLine checks the codec from both ends: every clique survives
// AppendLine → ParseCliqueLine unchanged, and arbitrary bytes either parse
// into in-range vertices that re-encode to the same line or fail — never
// panic.
func FuzzCliqueLine(f *testing.F) {
	f.Add([]byte("[0,9,10,99,100]"), 101)
	f.Add([]byte("[2147483647]\n"), 1<<31)
	f.Add([]byte("[-1,2]"), 10)
	f.Add([]byte("[01]"), 10)
	f.Add([]byte("[1,,2]"), 10)
	f.Add([]byte("[99999999999999999999]"), 1<<31)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		// Round trip: the raw bytes as little-endian vertices below n.
		if n > 0 {
			var c Clique
			for i := 0; i+3 < len(raw); i += 4 {
				u := uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24
				c = append(c, V(u%uint32(min(n, 1<<31))))
			}
			line := c.AppendLine(nil)
			got, err := ParseCliqueLine(line, nil, n)
			if err != nil || !slices.Equal(got, c) {
				t.Fatalf("round trip of %v through %q gave %v, %v", []V(c), line, got, err)
			}
		}
		// Arbitrary bytes: an accepted line is canonical and in range.
		got, err := ParseCliqueLine(raw, nil, n)
		if err != nil {
			return
		}
		for _, v := range got {
			if v < 0 || int(v) >= n {
				t.Fatalf("accepted vertex %d outside [0,%d) from %q", v, n, raw)
			}
		}
		line := bytes.TrimSuffix(raw, []byte("\n"))
		if re := got.AppendLine(nil); !bytes.Equal(re[:len(re)-1], line) {
			t.Fatalf("accepted %q, which re-encodes as %q", raw, re)
		}
	})
}

// TestCliqueLineSteadyStateZeroAlloc is the codec's alloc canary, pinned
// by the CI bench-smoke job: encoding into a buffer with room and decoding
// into a slice with room allocate nothing.
func TestCliqueLineSteadyStateZeroAlloc(t *testing.T) {
	c := Clique{7, 1023, 65536, 2147483646}
	buf := make([]byte, 0, MaxLineLen(len(c)))
	dst := make(Clique, 0, len(c))
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendLine(buf[:0])
		var err error
		if dst, err = ParseCliqueLine(buf, dst[:0], 1<<31); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state clique line encode+decode allocated %.1f objects/op, want 0", allocs)
	}
}

// benchLines is a realistic clique stream: the sorted 4-cliques of a
// planted graph.
func benchLines(b *testing.B) []Clique {
	cs := mustPlanted(2048, 6, 40, 0.02, 9).ListCliques(4)
	if len(cs) == 0 {
		b.Fatal("degenerate benchmark graph: no K4s")
	}
	return cs
}

// BenchmarkCliqueLineAppend encodes a clique stream into a reused buffer,
// the way a node fills its bufio.Writer; 0 allocs/op is the contract.
func BenchmarkCliqueLineAppend(b *testing.B) {
	cs := benchLines(b)
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cs[i%len(cs)]
		if len(buf)+MaxLineLen(len(c)) > cap(buf) {
			buf = buf[:0]
		}
		buf = c.AppendLine(buf)
	}
}

// BenchmarkCliqueLineParse decodes the same stream line by line.
func BenchmarkCliqueLineParse(b *testing.B) {
	cs := benchLines(b)
	lines := make([][]byte, len(cs))
	for i, c := range cs {
		lines[i] = c.AppendLine(nil)
	}
	dst := make(Clique, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = ParseCliqueLine(lines[i%len(lines)], dst[:0], 2048); err != nil {
			b.Fatal(err)
		}
	}
}
