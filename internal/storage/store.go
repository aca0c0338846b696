package storage

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// BlobStore is the content-addressed storage interface the upper layers
// (core.Marketplace, the node gateway) program against. Store (one node's
// local blob store) implements it, as do the durable engine's logging
// wrapper and p2p's transport-backed store that resolves misses from
// cluster peers. All of them report misses with a typed ErrNotFound —
// callers distinguish "nobody has it" from corruption (ErrTampered) with
// errors.Is.
type BlobStore interface {
	// Put stores data under its content address, recording the owner, and
	// returns the URI.
	Put(owner string, data []byte) (URI, error)
	// Get retrieves content by URI, verifying its digest. A miss wraps
	// ErrNotFound; a digest mismatch wraps ErrTampered.
	Get(uri URI) ([]byte, error)
	// Remove deletes content at the owner's request.
	Remove(owner string, uri URI) error
}

// LocalStore is the interface of one node's local blob store: BlobStore
// plus the ownership lookup the p2p layer needs to serve peers and
// replicate. Store implements it directly;
// the durable engine's logging wrapper (internal/snapshot.DurableBlobs)
// implements it by delegation, which is what lets a cluster member persist
// its blob half without the p2p layer knowing.
type LocalStore interface {
	BlobStore
	// Owner returns the recorded owner of a blob; ok is false on a miss.
	Owner(uri URI) (string, bool)
}

// Interface conformance.
var _ LocalStore = (*Store)(nil)

// Store is one node's local content-addressed blob store — the storage a
// single cluster member contributes. It has no routing; a p2p layer
// composes Stores across a transport so URIs resolve anywhere in the
// cluster. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	blobs  map[URI][]byte // guarded by mu
	owners map[URI]string // guarded by mu
}

// NewStore returns an empty local store.
func NewStore() *Store {
	return &Store{blobs: make(map[URI][]byte), owners: make(map[URI]string)}
}

// Put stores data under its content address and returns the URI.
func (s *Store) Put(owner string, data []byte) (URI, error) {
	uri := URIOf(data)
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.blobs[uri] = cp
	s.owners[uri] = owner
	s.mu.Unlock()
	return uri, nil
}

// Get retrieves content by URI, verifying its digest. Misses return a typed
// ErrNotFound (so a networked caller can fall through to peers); a digest
// mismatch returns ErrTampered.
func (s *Store) Get(uri URI) ([]byte, error) {
	s.mu.Lock()
	data, ok := s.blobs[uri]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, uri)
	}
	if URIOf(data) != uri {
		return nil, fmt.Errorf("%w: %s", ErrTampered, uri)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Owner returns the recorded owner of a blob; ok is false on a miss.
func (s *Store) Owner(uri URI) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.owners[uri]
	return owner, ok
}

// Remove deletes content at the owner's request; removing someone else's
// blob returns ErrNotOwner, a miss returns ErrNotFound.
func (s *Store) Remove(owner string, uri URI) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[uri]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, uri)
	}
	if s.owners[uri] != owner {
		return ErrNotOwner
	}
	delete(s.blobs, uri)
	delete(s.owners, uri)
	return nil
}

// BlobExport is one exported blob: its content address, recorded owner,
// and bytes.
type BlobExport struct {
	URI   URI
	Owner string
	Data  []byte
}

// Export deep-copies every stored blob, sorted by URI so serializations of
// the same store are byte-identical — the blob half of a state snapshot.
func (s *Store) Export() []BlobExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BlobExport, 0, len(s.blobs))
	for uri, data := range s.blobs {
		cp := make([]byte, len(data))
		copy(cp, data)
		out = append(out, BlobExport{URI: uri, Owner: s.owners[uri], Data: cp})
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].URI[:], out[j].URI[:]) < 0
	})
	return out
}

// Corrupt flips a byte of a stored blob — test hook for tamper evidence.
//
//lint:ignore testonly the p2p and core tests corrupt a replica to check that reads refuse it
func (s *Store) Corrupt(uri URI) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.blobs[uri]
	if !ok || len(data) == 0 {
		return false
	}
	data[0] ^= 0xff
	return true
}
