//go:build race

package graph

// raceEnabled: the race detector makes sync.Pool drop a random share of
// its items, so pool-reuse alloc canaries cannot hold under it.
const raceEnabled = true
