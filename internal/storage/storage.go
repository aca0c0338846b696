// Package storage implements the content-addressed storage substrate of
// ZKDET, standing in for IPFS: one node's blob store (Store) behind the
// BlobStore interface, which a cluster composes across peers (internal/p2p)
// and the durable engine logs (internal/snapshot).
//
// As in the paper's model (§III-A, §IV-A): a dataset's URI is the digest of
// its (encrypted) content, so the URI doubles as a hash commitment; any
// tampering changes the digest and is detected on retrieval; data is
// publicly retrievable by anyone who knows the URI; and content is only
// removed at its owner's request.
package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// URI is a content address: the SHA-256 digest of the stored bytes.
type URI [32]byte

// String returns the hex form of the URI.
func (u URI) String() string { return hex.EncodeToString(u[:]) }

// URIOf computes the content address of a byte string.
func URIOf(data []byte) URI { return sha256.Sum256(data) }

// Errors returned by the stores.
var (
	ErrNotFound = errors.New("storage: content not found")
	ErrTampered = errors.New("storage: content digest mismatch")
	ErrNotOwner = errors.New("storage: only the owner may remove content")
)
