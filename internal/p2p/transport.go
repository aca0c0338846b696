// Package p2p is ZKDET's networking subsystem: it connects N node.Node
// instances into a replicated cluster over a pluggable message transport.
//
// The paper deploys on a public testnet and IPFS, both of which presuppose
// a peer network with gossip, synchronization, and failure; internal/node
// alone is a single sealer in one process. This package supplies the
// missing substrate:
//
//   - a Transport abstraction with an in-memory simulator (SimNet) whose
//     FaultPlan injects per-link latency, jitter, drop rate, bandwidth
//     limits, and partitions — mutable mid-run;
//   - push-pull gossip: transactions are pushed to a bounded fanout with
//     seen-caches, block headers are announced and bodies fetched, and
//     peers serving invalid payloads are demoted by a scoring table;
//   - headers-first chain sync with retry/timeout/backoff, so a
//     partitioned or freshly joined node converges to the longest valid
//     chain (with round-robin leader rotation the chain never forks, so
//     the longest chain is the unique extension of a node's own head);
//   - deterministic leader rotation: exactly one member may seal each
//     height, everyone else validates and imports;
//   - a NetStore that resolves content-addressed blobs across the cluster
//     over the same transport, so storage URIs minted on one node resolve
//     on every node.
//
// Proof-carrying transactions are screened by the block verifier of the
// chain a member serves (chain.Chain.CheckTxs; on a marketplace genesis
// contracts.BlockProofChecker, one plonk.Batch fold) at local submission
// and gossip ingress, before they are pooled or re-propagated; a block's
// proofs are checked by the chain itself when it is imported.
package p2p

import (
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/storage"
)

// NodeID names a cluster member on the transport.
type NodeID string

// MsgKind discriminates wire messages.
type MsgKind uint8

// Wire message kinds. *Push/Announce/Status are one-way; Get* are requests
// answered by the matching response kind carrying the same ReqID.
const (
	MsgStatus        MsgKind = iota + 1 // head advertisement
	MsgTxPush                           // gossip transactions
	MsgBlockAnnounce                    // header announcement
	MsgGetHeaders                       // request a headers range
	MsgHeaders                          // headers response
	MsgGetBody                          // request a block body
	MsgBody                             // body response
	MsgGetBlob                          // request a storage blob
	MsgBlob                             // blob response
	MsgBlobPush                         // replicate a storage blob
)

func (k MsgKind) String() string {
	switch k {
	case MsgStatus:
		return "status"
	case MsgTxPush:
		return "tx-push"
	case MsgBlockAnnounce:
		return "block-announce"
	case MsgGetHeaders:
		return "get-headers"
	case MsgHeaders:
		return "headers"
	case MsgGetBody:
		return "get-body"
	case MsgBody:
		return "body"
	case MsgGetBlob:
		return "get-blob"
	case MsgBlob:
		return "blob"
	case MsgBlobPush:
		return "blob-push"
	default:
		return "unknown"
	}
}

// Message is the single wire envelope: a kind plus the union of payload
// fields the kinds use. The in-memory transport passes it by value;
// receivers must treat slice payloads as read-only.
type Message struct {
	Kind  MsgKind
	ReqID uint64 // request/response correlation; 0 on one-way messages

	// MsgStatus; also set on responses so peers piggyback head tracking.
	Height uint64
	Head   chain.Hash

	// MsgTxPush and MsgBody payloads.
	Txs []chain.Transaction

	// MsgBlockAnnounce (single header) and MsgHeaders (a range).
	Headers []chain.Block

	// MsgGetHeaders (From, Count) and MsgGetBody (From = block number).
	From  uint64
	Count int

	// Blob messages.
	URI   storage.URI
	Owner string
	Blob  []byte

	// Responses: OK reports whether the request was served; Err carries a
	// short reason when not.
	OK  bool
	Err string
}

// wireSize estimates the serialized size of a message in bytes; the
// simulated transport charges it against per-link bandwidth.
func (m *Message) wireSize() int {
	size := 64 // envelope: kind, ids, status fields
	for i := range m.Txs {
		size += 96 + len(m.Txs[i].Args) + len(m.Txs[i].Contract) + len(m.Txs[i].Method)
	}
	for i := range m.Headers {
		size += 112 + 32*len(m.Headers[i].TxHashes)
	}
	size += len(m.Blob) + len(m.Owner) + len(m.Err)
	return size
}

// Handler consumes messages delivered to an attached endpoint. The
// transport invokes it sequentially per endpoint, in delivery order.
type Handler func(from NodeID, msg Message)

// Transport moves messages between cluster members. Send is asynchronous
// and unreliable: implementations may delay, reorder, or drop; an error is
// returned only for local misuse (unknown endpoint, closed transport).
// Protocols built on it must tolerate loss with retry and reconciliation.
type Transport interface {
	// Attach registers an endpoint and its delivery handler.
	Attach(id NodeID, h Handler) error
	// Send queues a message from one endpoint to another.
	Send(from, to NodeID, msg Message) error
	// Detach removes an endpoint; queued deliveries to it are dropped.
	Detach(id NodeID)
}
