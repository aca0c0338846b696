// Package indexer is ZKDET's off-chain query layer: it consumes sealed
// blocks (via chain.OnSeal) and maintains an inverted event index keyed by
// (contract, event name, topic) with per-block bloom filters and paginated
// range queries, plus a provenance service that folds DataNFT and escrow
// events into per-token lineage DAGs — the paper's traceability property
// (§III-B, Figure 2) exposed as a query API instead of a storage walk.
package indexer

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/zkdet/zkdet/internal/chain"
)

// Entry is one indexed event occurrence.
type Entry struct {
	Block    uint64
	TxIndex  int
	LogIndex int
	TxHash   chain.Hash
	Event    chain.Event
}

// Filter selects entries for Query. Contract and Name are required; Topic
// narrows to one indexed topic when non-empty. FromBlock/ToBlock bound the
// block range (ToBlock 0 means the indexed head). Offset/Limit paginate;
// Limit 0 means no limit.
type Filter struct {
	Contract  string
	Name      string
	Topic     []byte
	FromBlock uint64
	ToBlock   uint64
	Offset    int
	Limit     int
}

// Stats summarizes what the indexer holds.
type Stats struct {
	Blocks  uint64 // blocks processed
	Events  uint64 // events indexed
	Txs     uint64 // transactions mapped
	Tokens  int    // tokens known to the provenance service
	CTNotes int    // confidential notes known to the provenance service
	Keys    int    // distinct (contract, name[, topic]) index keys
	Skipped uint64 // range-scan blocks skipped by bloom filters
}

// Config names the contracts whose events the provenance service folds.
// Zero values disable provenance folding for that contract.
type Config struct {
	NFTContract    string
	EscrowContract string
	CTContract     string // confidential-token contract (commitment digests, never amounts)
}

// Indexer is the off-chain index. Feed it sealed blocks via Attach (the
// chain's OnSeal hook) or ProcessBlock directly; query it concurrently.
type Indexer struct {
	mu  sync.RWMutex
	cfg Config

	head    uint64                // guarded by mu
	blooms  map[uint64]*bloom     // guarded by mu; per processed block
	byKey   map[string][]Entry    // guarded by mu
	txBlock map[chain.Hash]uint64 // guarded by mu
	events  uint64                // guarded by mu
	blocks  uint64                // guarded by mu
	skipped uint64                // guarded by mu

	prov *provenance // pointer immutable; contents mutated under mu
}

// New returns an empty indexer.
func New(cfg Config) *Indexer {
	return &Indexer{
		cfg:     cfg,
		blooms:  make(map[uint64]*bloom),
		byKey:   make(map[string][]Entry),
		txBlock: make(map[chain.Hash]uint64),
		prov:    newProvenance(cfg),
	}
}

// Attach registers the indexer on the chain's seal hook so every sealed
// block is processed synchronously, in height order.
func (ix *Indexer) Attach(c *chain.Chain) {
	c.OnSeal(ix.ProcessBlock)
}

func indexKey(contract, name string, topic []byte) string {
	return contract + "\x00" + name + "\x00" + string(topic)
}

// ProcessBlock folds one sealed block into the index. Blocks must arrive in
// height order (chain.OnSeal guarantees this).
func (ix *Indexer) ProcessBlock(b chain.Block, receipts []*chain.Receipt) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bl := &bloom{}
	for txIdx, r := range receipts {
		if r == nil {
			continue
		}
		ix.txBlock[r.TxHash] = b.Number
		for logIdx, ev := range r.Logs {
			e := Entry{Block: b.Number, TxIndex: txIdx, LogIndex: logIdx, TxHash: r.TxHash, Event: ev}
			k := indexKey(ev.Contract, ev.Name, nil)
			ix.byKey[k] = append(ix.byKey[k], e)
			bl.add(k)
			if len(ev.Topic) > 0 {
				kt := indexKey(ev.Contract, ev.Name, ev.Topic)
				ix.byKey[kt] = append(ix.byKey[kt], e)
				bl.add(kt)
			}
			ix.events++
			ix.prov.fold(b.Number, r.TxHash, ev)
		}
	}
	ix.blooms[b.Number] = bl
	ix.head = b.Number
	ix.blocks++
}

// Head returns the highest indexed block number.
func (ix *Indexer) Head() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.head
}

// TxBlock returns the block that included a transaction.
func (ix *Indexer) TxBlock(h chain.Hash) (uint64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n, ok := ix.txBlock[h]
	return n, ok
}

// ErrBadFilter reports a malformed query filter.
var ErrBadFilter = errors.New("indexer: contract and event name are required")

// Query returns one page of entries matching the filter in chain order,
// plus the total match count in the range (for pagination UIs). Lookup is
// O(log n) into the key's posting list; block-range bounds use binary
// search, never a receipt walk.
func (ix *Indexer) Query(f Filter) ([]Entry, int, error) {
	if f.Contract == "" || f.Name == "" {
		return nil, 0, ErrBadFilter
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	entries := ix.byKey[indexKey(f.Contract, f.Name, f.Topic)]
	to := f.ToBlock
	if to == 0 {
		to = ix.head
	}
	lo := sort.Search(len(entries), func(i int) bool { return entries[i].Block >= f.FromBlock })
	hi := sort.Search(len(entries), func(i int) bool { return entries[i].Block > to })
	matched := entries[lo:max(lo, hi)] // FromBlock > ToBlock matches nothing
	total := len(matched)

	if f.Offset > 0 {
		if f.Offset >= len(matched) {
			return nil, total, nil
		}
		matched = matched[f.Offset:]
	}
	if f.Limit > 0 && f.Limit < len(matched) {
		matched = matched[:f.Limit]
	}
	out := make([]Entry, len(matched))
	copy(out, matched)
	return out, total, nil
}

// BlocksMaybeContaining returns the block numbers in [from, to] whose bloom
// filter admits the (contract, name, topic) key — the block-skip primitive
// a cold-storage scan would use. Blocks whose blooms exclude the key are
// counted in Stats.Skipped.
func (ix *Indexer) BlocksMaybeContaining(contract, name string, topic []byte, from, to uint64) []uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if to == 0 || to > ix.head {
		to = ix.head
	}
	key := indexKey(contract, name, topic)
	var out []uint64
	for n := from; n <= to; n++ {
		bl, ok := ix.blooms[n]
		if !ok {
			continue
		}
		if bl.maybeContains(key) {
			out = append(out, n)
		} else {
			ix.skipped++
		}
	}
	return out
}

// Stats snapshots index counters.
func (ix *Indexer) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		Blocks:  ix.blocks,
		Events:  ix.events,
		Txs:     uint64(len(ix.txBlock)),
		Tokens:  len(ix.prov.tokens),
		CTNotes: len(ix.prov.ctNotes),
		Keys:    len(ix.byKey),
		Skipped: ix.skipped,
	}
}

// --- provenance accessors (implementation in provenance.go) ---

// ErrUnknownToken reports a provenance query for a token the indexer has
// not seen a mint event for.
var ErrUnknownToken = errors.New("indexer: unknown token")

// Token returns the folded record of one token.
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

// Lineage returns the full provenance DAG reachable from a token: every
// ancestor's record plus the parent→child edge list, in BFS order.
func (ix *Indexer) Lineage(id uint64) (*Lineage, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.prov.lineage(id)
}

// Exchange returns the folded record of one escrow exchange.
func (ix *Indexer) Exchange(id uint64) (*ExchangeRecord, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rec, ok := ix.prov.exchanges[id]
	if !ok {
		return nil, fmt.Errorf("indexer: unknown exchange %d", id)
	}
	cp := *rec
	return &cp, nil
}

// ErrUnknownNote reports a query for a confidential note the indexer has
// not seen a CTNote event for.
var ErrUnknownNote = errors.New("indexer: unknown confidential note")

// CTNote returns the folded record of one confidential note. The record
// carries only public data — owner, status, and the commitment digest; no
// amount ever appears in events, so none can appear here.
func (ix *Indexer) CTNote(id uint64) (*CTNoteRecord, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rec, ok := ix.prov.ctNotes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNote, id)
	}
	return rec.clone(), nil
}

// CTNoteByDigest resolves a 32-byte commitment digest — the only handle to
// a confidential note that appears in lineage events and audit reports —
// back to the note record. This is what lets an auditor pivot from an
// opened payment to the note's on-chain history without scanning blocks.
func (ix *Indexer) CTNoteByDigest(digest []byte) (*CTNoteRecord, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, ok := ix.prov.ctByDigest[string(digest)]
	if !ok {
		return nil, fmt.Errorf("%w: digest %x", ErrUnknownNote, digest)
	}
	return ix.prov.ctNotes[id].clone(), nil
}

// CTExchange returns the folded record of one confidential escrow exchange.
func (ix *Indexer) CTExchange(id uint64) (*CTExchangeRecord, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rec, ok := ix.prov.ctExchanges[id]
	if !ok {
		return nil, fmt.Errorf("indexer: unknown confidential exchange %d", id)
	}
	cp := *rec
	cp.History = append([]HistoryEntry(nil), rec.History...)
	return &cp, nil
}
