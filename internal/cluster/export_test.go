package cluster

import (
	"context"

	"kplist/internal/partition"
)

// RegisterPartitionedAs is RegisterPartitioned under a caller-chosen
// graph ID, so a test can pick the signature placement.
func (c *Client) RegisterPartitionedAs(ctx context.Context, id string, body []byte, p int) (GraphMeta, error) {
	return c.registerPartitioned(ctx, id, body, p)
}

// SignatureCounts returns how many of the p-clique signatures each member
// would own for a partitioned graph registered as id; a member that owns
// none is absent.
func (c *Client) SignatureCounts(id string, p int) map[string]int {
	counts := make(map[string]int)
	for _, m := range c.signatureOwners(id, partition.Signatures(len(c.cfg.Members), p)) {
		counts[c.cfg.Members[m].Name]++
	}
	return counts
}
