package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is the deterministic consistent-hash ring: VNodes points per
// member, placed by a seeded FNV-1a hash of the member NAME (never the
// address), sorted clockwise. A key's owner is the member of the first
// vnode at or after the key's hash; its replica set continues clockwise
// to the next R−1 distinct members. The ring is immutable once built —
// every process that builds it from the same Config computes identical
// placement, which is what lets the gateway, every node's ownership
// check, and offline tools agree without coordination.
type Ring struct {
	cfg    Config
	vnodes []vnode // sorted by (hash, member index, replica index)
}

type vnode struct {
	hash   uint64
	member int32
	vn     int32
}

// NewRing builds the ring for cfg (validated, defaults applied).
func NewRing(cfg Config) (*Ring, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	r := &Ring{
		cfg:    cfg,
		vnodes: make([]vnode, 0, len(cfg.Members)*cfg.VNodes),
	}
	for i, m := range cfg.Members {
		for v := 0; v < cfg.VNodes; v++ {
			h := r.hash(fmt.Sprintf("%s#%d", m.Name, v))
			r.vnodes = append(r.vnodes, vnode{hash: h, member: int32(i), vn: int32(v)})
		}
	}
	// Ties (identical hashes) are broken by (member, vn) so the ring
	// order is a total function of the config, not of build order.
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		if r.vnodes[a].member != r.vnodes[b].member {
			return r.vnodes[a].member < r.vnodes[b].member
		}
		return r.vnodes[a].vn < r.vnodes[b].vn
	})
	return r, nil
}

// hash is seeded FNV-1a over the seed bytes then s — cheap, stdlib-only,
// and stable across architectures and Go versions.
func (r *Ring) hash(s string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(uint64(r.cfg.Seed) >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(s))
	return h.Sum64()
}

// Config returns the (defaulted) membership the ring was built from.
func (r *Ring) Config() Config { return r.cfg }

// Members returns the membership in config order.
func (r *Ring) Members() []Member { return r.cfg.Members }

// Replication returns the configured R.
func (r *Ring) Replication() int { return r.cfg.Replication }

// start returns the index of the first vnode whose hash is ≥ h, wrapping.
func (r *Ring) start(h uint64) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// Owner returns the member owning key.
func (r *Ring) Owner(key string) Member {
	return r.cfg.Members[r.vnodes[r.start(r.hash(key))].member]
}

// ReplicaSet returns the owner of key followed by the next n−1 distinct
// members clockwise — the placement of a graph with replication n.
// n is clamped to [1, len(members)].
func (r *Ring) ReplicaSet(key string, n int) []Member {
	if n < 1 {
		n = 1
	}
	if n > len(r.cfg.Members) {
		n = len(r.cfg.Members)
	}
	out := make([]Member, 0, n)
	seen := make(map[int32]bool, n)
	i := r.start(r.hash(key))
	for k := 0; k < len(r.vnodes) && len(out) < n; k++ {
		vn := r.vnodes[(i+k)%len(r.vnodes)]
		if !seen[vn.member] {
			seen[vn.member] = true
			out = append(out, r.cfg.Members[vn.member])
		}
	}
	return out
}

// IsOwner reports whether the named member owns key.
func (r *Ring) IsOwner(name, key string) bool { return r.Owner(key).Name == name }

// Spread counts, for a sample of keys, how many land on each member —
// the metrics/ring-state view and the balance test hook.
func (r *Ring) Spread(keys []string) map[string]int {
	out := make(map[string]int, len(r.cfg.Members))
	for _, m := range r.cfg.Members {
		out[m.Name] = 0
	}
	for _, k := range keys {
		out[r.Owner(k).Name]++
	}
	return out
}
