// Package indexer is ZKDET's off-chain query layer: it consumes sealed
// blocks (via chain.OnSeal) and keeps one posting list per (contract, event
// name[, topic]) key, answered by binary search with paginated range
// queries. A provenance service folds DataNFT and escrow events into
// per-token lineage DAGs — the paper's traceability property (§III-B,
// Figure 2) exposed as a query API instead of a storage walk.
// Confidential-token events land in the posting lists like any other;
// confidential state is read from contract storage (contracts.ReadCTNote).
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
	Keys    int    // distinct (contract, name[, topic]) index keys
	Skipped uint64 // always zero: no read skips blocks (kept for the benchmark's indexer.bloom_skipped)
}

// Config names the contracts whose events the provenance service folds.
// Zero values disable provenance folding for that contract.
type Config struct {
	NFTContract    string
	EscrowContract string
}

// Indexer is the off-chain index. Feed it sealed blocks via Attach (the
// chain's OnSeal hook) or ProcessBlock directly; query it concurrently.
type Indexer struct {
	mu  sync.RWMutex
	cfg Config

	head    uint64                // guarded by mu
	byKey   map[string][]Entry    // guarded by mu
	txBlock map[chain.Hash]uint64 // guarded by mu
	events  uint64                // guarded by mu
	blocks  uint64                // guarded by mu

	prov *provenance // pointer immutable; contents mutated under mu
}

// New returns an empty indexer.
func New(cfg Config) *Indexer {
	return &Indexer{
		cfg:     cfg,
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

// Stats snapshots index counters.
func (ix *Indexer) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		Blocks: ix.blocks,
		Events: ix.events,
		Txs:    uint64(len(ix.txBlock)),
		Tokens: len(ix.prov.tokens),
		Keys:   len(ix.byKey),
	}
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
	rec, ok := ix.prov.exchanges[id]
	if !ok {
		return nil, fmt.Errorf("indexer: unknown exchange %d", id)
	}
	cp := *rec
	return &cp, nil
}
