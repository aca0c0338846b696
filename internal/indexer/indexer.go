// Package indexer is ZKDET's off-chain query layer: it consumes sealed
// blocks (via chain.OnSeal) and keeps one posting list per (contract, event
// name[, topic]) key, answered by binary search with paginated range
// queries. A provenance service folds DataNFT events into per-token lineage
// DAGs — the paper's traceability property (§III-B, Figure 2) exposed as a
// query API instead of a storage walk — and the exchange machine's events,
// from the escrow and the confidential token alike, into one record per
// exchange. Those events carry ids, hashes and commitments only: a note's
// amount is read from contract storage (contracts.ReadCTNote) and opened by
// the auditor's key alone.
package indexer

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
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

// Indexer is the off-chain index. Feed it sealed blocks via Attach (the
// chain's OnSeal hook) or ProcessBlock directly; query it concurrently.
type Indexer struct {
	mu sync.RWMutex

	head    uint64                // guarded by mu
	byKey   map[string][]Entry    // guarded by mu
	txBlock map[chain.Hash]uint64 // guarded by mu
	events  uint64                // guarded by mu
	blocks  uint64                // guarded by mu

	prov *provenance // pointer immutable; contents mutated under mu
}

// New returns an empty indexer.
func New() *Indexer {
	return &Indexer{
		byKey:   make(map[string][]Entry),
		txBlock: make(map[chain.Hash]uint64),
		prov:    newProvenance(),
	}
}

// Attach registers the indexer on the chain's seal hook so every sealed
// block is processed synchronously, in height order.
func (ix *Indexer) Attach(c *chain.Chain) {
	c.OnSeal(func(b chain.Block, rs []*chain.Receipt) error {
		ix.ProcessBlock(b, rs)
		return nil
	})
}

func indexKey(contract, name string, topic []byte) string {
	return contract + "\x00" + name + "\x00" + string(topic)
}

// ProcessBlock folds one sealed block into the index. Blocks must arrive in
// height order (chain.OnSeal guarantees this).
func (ix *Indexer) ProcessBlock(b chain.Block, receipts []*chain.Receipt) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for txIdx, r := range receipts {
		if r == nil {
			continue
		}
		ix.txBlock[r.TxHash] = b.Number
		for logIdx, ev := range r.Logs {
			e := Entry{Block: b.Number, TxIndex: txIdx, LogIndex: logIdx, TxHash: r.TxHash, Event: ev}
			k := indexKey(ev.Contract, ev.Name, nil)
			ix.byKey[k] = append(ix.byKey[k], e)
			if len(ev.Topic) > 0 {
				kt := indexKey(ev.Contract, ev.Name, ev.Topic)
				ix.byKey[kt] = append(ix.byKey[kt], e)
			}
			ix.events++
			ix.prov.fold(b.Number, r.TxHash, ev)
		}
	}
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

// Metrics reports what the indexer holds under constant indexer.* names:
// blocks processed, events indexed, transactions mapped, tokens known to
// the provenance service and distinct (contract, name[, topic]) keys.
func (ix *Indexer) Metrics() map[string]float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return map[string]float64{
		"indexer.blocks": float64(ix.blocks), "indexer.events": float64(ix.events),
		"indexer.txs": float64(len(ix.txBlock)), "indexer.tokens": float64(len(ix.prov.tokens)),
		"indexer.keys": float64(len(ix.byKey)),
	}
}

// Stats is the part of Metrics that benchmark/layers.go reads. Skipped is
// always zero: no read skips blocks.
// benchmark shim: item 1 deletes
type Stats struct {
	Events, Skipped uint64
	Tokens          int
}

// Stats reads the shim's fields out of Metrics.
// benchmark shim: item 1 deletes
func (ix *Indexer) Stats() Stats {
	m := ix.Metrics()
	return Stats{Events: uint64(m["indexer.events"]), Tokens: int(m["indexer.tokens"])}
}

// --- provenance accessors (implementation in provenance.go) ---

// ErrUnknownToken reports a provenance query for a token the indexer has
// not seen a mint event for.
var ErrUnknownToken = errors.New("indexer: unknown token")

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
	rec, ok := ix.prov.exchanges[contracts.EscrowName].byID[id]
	if !ok {
		return nil, fmt.Errorf("indexer: unknown exchange %d", id)
	}
	cp := *rec
	return &cp, nil
}

// Exchanges returns the folded record of every exchange opened on one
// contract, in open order: every exchange whose blocks this indexer saw.
func (ix *Indexer) Exchanges(contract string) []ExchangeRecord {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	book := ix.prov.exchanges[contract]
	if book == nil {
		return nil
	}
	out := make([]ExchangeRecord, len(book.opened))
	for i, rec := range book.opened {
		out[i] = *rec
	}
	return out
}
