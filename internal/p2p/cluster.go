package p2p

import (
	"context"
	"fmt"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/storage"
)

// NodeSetup is one member's application stack, built by the caller so the
// cluster harness stays agnostic of contracts: the inner node over its own
// chain replica, whose block verifier also screens gossip, and an optional
// local blob store.
type NodeSetup struct {
	Inner *node.Node
	Store storage.LocalStore
}

// ClusterSpec describes a simulated cluster.
type ClusterSpec struct {
	// Size is the member count.
	Size int
	// Seed drives the transport's randomness (drops, jitter).
	Seed int64
	// Link is the default link profile; mutate Cluster.Net.Plan() mid-run
	// for faults.
	Link LinkProfile
	// Build constructs member i's stack. Nil means a bare chain and node
	// with default tuning — enough for transfer-only traffic. Every
	// member's genesis state must be identical.
	Build func(i int, id NodeID) (NodeSetup, error)
	// Tune, when set, adjusts member i's p2p config (fanout, timeouts)
	// after defaults are applied.
	Tune func(i int, cfg *Config)
}

// Cluster is a set of p2p nodes wired to one simulated transport —
// the harness the tests, benchmarks, and the zkdet-cluster demo share.
type Cluster struct {
	Net   *SimNet
	Nodes []*Node
}

// MemberIDs returns the canonical IDs of an n-member cluster.
func MemberIDs(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node-%02d", i))
	}
	return ids
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Size < 2 {
		return nil, fmt.Errorf("p2p: cluster needs at least 2 members, got %d", spec.Size)
	}
	build := spec.Build
	if build == nil {
		build = func(int, NodeID) (NodeSetup, error) {
			return NodeSetup{
				Inner: node.New(chain.New(), node.Config{}),
				Store: storage.NewStore(),
			}, nil
		}
	}
	members := MemberIDs(spec.Size)
	net := NewSimNet(NewFaultPlan(spec.Link), spec.Seed)
	c := &Cluster{Net: net, Nodes: make([]*Node, spec.Size)}
	for i, id := range members {
		setup, err := build(i, id)
		if err != nil {
			return nil, fmt.Errorf("p2p: build member %d: %w", i, err)
		}
		cfg := Config{ID: id, Members: members, Store: setup.Store}
		if spec.Tune != nil {
			spec.Tune(i, &cfg)
		}
		n, err := NewNode(cfg, setup.Inner, net)
		if err != nil {
			return nil, err
		}
		c.Nodes[i] = n
	}
	return c, nil
}

// Start launches every member.
func (c *Cluster) Start() error {
	for _, n := range c.Nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop halts every member and closes the transport.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
	c.Net.Close()
}

// Converged reports whether all members share one head, and that head's
// hash and height.
func (c *Cluster) Converged() (chain.Hash, uint64, bool) {
	head := c.Nodes[0].Head()
	want := head.Hash()
	for _, n := range c.Nodes[1:] {
		h := n.Head()
		if h.Hash() != want {
			return chain.Hash{}, 0, false
		}
	}
	return want, head.Number, true
}

// WaitConverged polls until every member reports the same head at or above
// minHeight, returning that head hash.
func (c *Cluster) WaitConverged(ctx context.Context, minHeight uint64) (chain.Hash, error) {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if h, height, ok := c.Converged(); ok && height >= minHeight {
			return h, nil
		}
		select {
		case <-ctx.Done():
			h, height, ok := c.Converged()
			if ok && height >= minHeight {
				return h, nil
			}
			return chain.Hash{}, fmt.Errorf("p2p: convergence timeout (converged=%v height=%d min=%d): %w",
				ok, height, minHeight, ctx.Err())
		case <-ticker.C:
		}
	}
}
