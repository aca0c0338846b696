package indexer

import "fmt"

// Token returns the folded record of one token: the probe the tests read
// the provenance fold through.
func (ix *Indexer) Token(id uint64) (*TokenRecord, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rec, ok := ix.prov.tokens[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownToken, id)
	}
	cp := rec.clone()
	return cp, nil
}
