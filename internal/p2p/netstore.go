package p2p

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/storage"
)

// NetStore is the cluster's blob store: a node's local storage.Store
// fronted by peer fetch over the transport. Put stores locally and
// replicates to Config.Replicate peers; Get serves local hits immediately
// and resolves misses from peers, verifying the content address before
// caching — a peer returning bytes that do not hash to the URI is demoted
// and the next peer is tried. It implements storage.BlobStore, so a
// core.Marketplace wired to it resolves URIs minted anywhere in the
// cluster (the paper's IPFS role, DHT-free: membership is static, so
// asking peers directly replaces routing).
type NetStore struct {
	node  *Node
	local storage.LocalStore
}

// NetStore returns the node's cluster-wide blob store. It requires
// Config.Store (the local half) to be set.
func (n *Node) NetStore() *NetStore {
	return &NetStore{node: n, local: n.cfg.Store}
}

var _ storage.BlobStore = (*NetStore)(nil)

// Put stores data locally and replicates it to a few peers so the blob
// survives this node's failure and nearby reads stay local.
func (s *NetStore) Put(owner string, data []byte) (storage.URI, error) {
	uri, err := s.local.Put(owner, data)
	if err != nil {
		return storage.URI{}, err
	}
	msg := Message{Kind: MsgBlobPush, URI: uri, Owner: owner, Blob: data}
	targets := s.node.gossipTargets("")
	if len(targets) > s.node.cfg.Replicate {
		targets = targets[:s.node.cfg.Replicate]
	}
	for _, id := range targets {
		s.node.net.Send(s.node.cfg.ID, id, msg) //nolint:errcheck // unreliable by contract
	}
	return uri, nil
}

// Get retrieves a blob, falling through to peers on a local miss. Fetched
// content is digest-checked against the URI and cached locally under the
// owner the peer reports. Every reachable peer missing the blob yields
// ErrNotFound; local tamper evidence (ErrTampered) is returned as-is.
func (s *NetStore) Get(uri storage.URI) ([]byte, error) {
	data, err := s.local.Get(uri)
	if err == nil || errors.Is(err, storage.ErrTampered) {
		return data, err
	}
	for _, id := range s.node.fetchCandidates() {
		resp, err := s.node.request(id, Message{Kind: MsgGetBlob, URI: uri})
		if err != nil || !resp.OK {
			continue
		}
		if storage.URIOf(resp.Blob) != uri {
			// Served bytes that do not match the content address: the
			// peer is lying or corrupt either way.
			s.node.demote(id, scoreInvalidBlock)
			continue
		}
		s.local.Put(resp.Owner, resp.Blob) //nolint:errcheck // local put cannot fail
		return resp.Blob, nil
	}
	return nil, fmt.Errorf("%w: %s (cluster-wide)", storage.ErrNotFound, uri)
}

// Remove deletes this node's copy only. Replicas are never removed
// remotely: the owner a blob is stored under is a label any peer can read
// (MsgGetBlob serves it), so it cannot authorize erasing other members'
// copies.
func (s *NetStore) Remove(owner string, uri storage.URI) error {
	return s.local.Remove(owner, uri)
}

// fetchCandidates lists non-demoted peers in deterministic order.
func (n *Node) fetchCandidates() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.others))
	for _, id := range n.others {
		if ps := n.peers[id]; ps != nil && ps.score <= n.cfg.DemoteBelow {
			continue
		}
		out = append(out, id)
	}
	return out
}
