package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kplist/internal/graph"
)

func testConfig(n int) Config {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("host%d:9000", i+1)}
	}
	return Config{Members: ms}
}

func TestRingDeterminism(t *testing.T) {
	cfg := testConfig(5)
	cfg.Replication = 3
	cfg.Seed = 42
	a, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("graph-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs between identically configured rings", key)
		}
		ra, rb := a.ReplicaSet(key, 3), b.ReplicaSet(key, 3)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("replica set of %q differs at %d: %v vs %v", key, j, ra, rb)
			}
		}
	}
}

func TestRingPlacementIgnoresAddresses(t *testing.T) {
	// Placement must be a function of member names only: nodes and the
	// gateway reach members through different addresses but must agree.
	cfg := testConfig(4)
	a, _ := NewRing(cfg)
	cfg2 := testConfig(4)
	for i := range cfg2.Members {
		cfg2.Members[i].Addr = fmt.Sprintf("http://elsewhere-%d:1234", i)
	}
	b, _ := NewRing(cfg2)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Owner(key).Name != b.Owner(key).Name {
			t.Fatalf("owner of %q depends on member addresses", key)
		}
	}
}

func TestRingSeedRedeals(t *testing.T) {
	cfg := testConfig(4)
	a, _ := NewRing(cfg)
	cfg.Seed = 99
	b, _ := NewRing(cfg)
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Owner(key).Name != b.Owner(key).Name {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the ring seed moved no keys")
	}
}

func TestReplicaSetDistinctAndClamped(t *testing.T) {
	r, _ := NewRing(testConfig(3))
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		set := r.ReplicaSet(key, 5) // clamps to 3 members
		if len(set) != 3 {
			t.Fatalf("replica set size %d, want 3", len(set))
		}
		seen := map[string]bool{}
		for _, m := range set {
			if seen[m.Name] {
				t.Fatalf("replica set for %q repeats member %s", key, m.Name)
			}
			seen[m.Name] = true
		}
		if set[0] != r.Owner(key) {
			t.Fatalf("replica set head %s is not the owner %s", set[0].Name, r.Owner(key).Name)
		}
	}
	if got := r.ReplicaSet("x", 0); len(got) != 1 {
		t.Fatalf("n=0 should clamp to 1, got %d members", len(got))
	}
}

// TestSuccessorSet checks where a partitioned graph's shards live: member
// i's shard on member i and then its R−1 successors in config order,
// wrapping, for any ring seed.
func TestSuccessorSet(t *testing.T) {
	for _, seed := range []int64{0, 42} {
		cfg := testConfig(4)
		cfg.Replication, cfg.Seed = 3, seed
		c, err := NewClient(cfg, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range [][]string{{"n1", "n2", "n3"}, {"n2", "n3", "n4"}, {"n3", "n4", "n1"}, {"n4", "n1", "n2"}} {
			var got []string
			for _, m := range c.shardHosts(i) {
				got = append(got, m.Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: member %d's shard hosts %v, want %v", seed, i, got, want)
			}
		}
	}
}

func TestRingSpreadBalance(t *testing.T) {
	r, _ := NewRing(testConfig(4))
	keys := make([]string, 4000)
	for i := range keys {
		keys[i] = fmt.Sprintf("graph-%d", i)
	}
	spread := r.Spread(keys)
	for name, n := range spread {
		// With 64 vnodes/member the split should be within a loose 3x
		// band of perfect balance; this guards against hashing bugs, not
		// statistical variance.
		if n < len(keys)/12 || n > len(keys)/4*3 {
			t.Fatalf("member %s owns %d of %d keys — ring badly unbalanced: %v", name, n, len(keys), spread)
		}
	}
}

func TestIsOwner(t *testing.T) {
	r, _ := NewRing(testConfig(3))
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		owners := 0
		for _, m := range r.Members() {
			if r.IsOwner(m.Name, key) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %q has %d owners", key, owners)
		}
	}
}

func TestParseConfigInline(t *testing.T) {
	cfg, err := ParseConfig("a=host1:1000, b=host2:2000,host3:3000")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Members) != 3 {
		t.Fatalf("got %d members", len(cfg.Members))
	}
	if cfg.Members[0].Name != "a" || cfg.Members[1].Name != "b" || cfg.Members[2].Name != "n3" {
		t.Fatalf("bad names: %+v", cfg.Members)
	}
	cfg = cfg.WithDefaults()
	if cfg.Members[2].Addr != "http://host3:3000" {
		t.Fatalf("addr not normalized: %q", cfg.Members[2].Addr)
	}
	if cfg.Replication != 2 || cfg.VNodes != 64 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParseConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	body := `{"members":[{"name":"x","addr":"h1:1"},{"name":"y","addr":"http://h2:2"}],"replication":1,"vnodes":16,"seed":7}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"@" + path, path} {
		cfg, err := ParseConfig(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if len(cfg.Members) != 2 || cfg.Replication != 1 || cfg.VNodes != 16 || cfg.Seed != 7 {
			t.Fatalf("spec %q: parsed %+v", spec, cfg)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"@/definitely/not/here.json",
		"bad name=addr", // space in name
	} {
		if _, err := ParseConfig(spec); err == nil {
			t.Fatalf("spec %q should fail", spec)
		}
	}
	if err := (Config{Members: []Member{{Name: "a", Addr: "x"}, {Name: "a", Addr: "y"}}}).Validate(); err == nil {
		t.Fatal("duplicate names should fail validation")
	}
	if err := (Config{Members: []Member{{Name: "a", Addr: " "}}}).Validate(); err == nil {
		t.Fatal("empty address should fail validation")
	}
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty membership should fail validation")
	}
}

// TestParseCliqueLine covers the shard lines the scatter read must
// refuse: malformed, negative, overflowing and out-of-range vertices
// (graph.ParseCliqueLine is its parser).
func TestParseCliqueLine(t *testing.T) {
	got, err := graph.ParseCliqueLine([]byte("[3,1,42]"), nil, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 42 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "3,1", "[a,b]", "[1,]",
		"[42,43]",                      // vertex ≥ n
		"[-1,2]",                       // negative
		"[2147483648]",                 // past int32
		"[99999999999999999999999999]", // past int64
	} {
		if _, err := graph.ParseCliqueLine([]byte(bad), nil, 43); err == nil {
			t.Fatalf("line %q should fail", bad)
		}
	}
	if !lessVerts([]int32{1, 2, 3}, []int32{1, 2, 4}) || lessVerts([]int32{2}, []int32{1, 9}) {
		t.Fatal("lessVerts is not lexicographic")
	}
	if !lessVerts([]int32{1, 2}, []int32{1, 2, 0}) {
		t.Fatal("lessVerts should order prefixes first")
	}
}
