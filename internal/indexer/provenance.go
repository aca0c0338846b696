package indexer

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// HistoryEntry is one provenance-relevant event in a token's or exchange's
// life, pinned to the block and transaction that produced it.
type HistoryEntry struct {
	Block  uint64
	TxHash chain.Hash
	Name   string // Transfer | Transform | Burn | Opened | Settled | Refunded
}

// TokenRecord is the indexer's folded view of one DataNFT, reconstructed
// purely from events — it never reads contract storage, so it stays correct
// even if the chain later prunes cold state.
type TokenRecord struct {
	ID       uint64
	Kind     contracts.TransformKind
	Owner    chain.Address
	Parents  []uint64
	Children []uint64
	Burned   bool
	History  []HistoryEntry
}

func (r *TokenRecord) clone() *TokenRecord {
	cp := *r
	cp.Parents = append([]uint64(nil), r.Parents...)
	cp.Children = append([]uint64(nil), r.Children...)
	cp.History = append([]HistoryEntry(nil), r.History...)
	return &cp
}

// Exchange status labels.
const (
	ExchangeOpen     = "open"
	ExchangeSettled  = "settled"
	ExchangeRefunded = "refunded"
)

// ExchangeRecord is the folded view of one escrow exchange.
type ExchangeRecord struct {
	ID      uint64
	Seller  chain.Address
	HV      []byte
	C       []byte
	Value   uint64
	Status  string
	KC      []byte // blinded key k_c, present once settled
	History []HistoryEntry
}

// Edge is one parent→child derivation in a lineage DAG.
type Edge struct {
	Parent uint64
	Child  uint64
}

// Lineage is the provenance DAG reachable backwards from a token: the
// token's record plus every ancestor's, in BFS order, with the derivation
// edges among them.
type Lineage struct {
	Tokens []*TokenRecord
	Edges  []Edge
}

// provenance folds DataNFT and escrow events into per-token and
// per-exchange records. All methods run under the owning Indexer's lock.
type provenance struct {
	cfg       Config
	tokens    map[uint64]*TokenRecord
	exchanges map[uint64]*ExchangeRecord
}

func newProvenance(cfg Config) *provenance {
	return &provenance{
		cfg:       cfg,
		tokens:    make(map[uint64]*TokenRecord),
		exchanges: make(map[uint64]*ExchangeRecord),
	}
}

func (p *provenance) fold(block uint64, txHash chain.Hash, ev chain.Event) {
	switch ev.Contract {
	case p.cfg.NFTContract:
		if p.cfg.NFTContract != "" {
			p.foldNFT(block, txHash, ev)
		}
	case p.cfg.EscrowContract:
		if p.cfg.EscrowContract != "" {
			p.foldEscrow(block, txHash, ev)
		}
	}
}

func (p *provenance) token(id uint64) *TokenRecord {
	rec, ok := p.tokens[id]
	if !ok {
		rec = &TokenRecord{ID: id, Kind: contracts.KindMint}
		p.tokens[id] = rec
	}
	return rec
}

func (p *provenance) foldNFT(block uint64, txHash chain.Hash, ev chain.Event) {
	parts, err := contracts.DecodeArgsVariadic(ev.Data)
	if err != nil || len(parts) == 0 {
		return // not a payload we understand; leave the raw event queryable
	}
	id, err := contracts.DecU64(parts[0])
	if err != nil {
		return
	}
	h := HistoryEntry{Block: block, TxHash: txHash, Name: ev.Name}
	switch ev.Name {
	case "Transfer":
		// EncodeArgs(id, from, to); an empty from marks a mint.
		if len(parts) != 3 || len(parts[2]) != 20 {
			return
		}
		rec := p.token(id)
		copy(rec.Owner[:], parts[2])
		rec.History = append(rec.History, h)
	case "Transform":
		// EncodeArgs(id, kind, prevIds).
		if len(parts) != 3 || len(parts[1]) != 1 {
			return
		}
		prev, err := contracts.DecU64List(parts[2])
		if err != nil {
			return
		}
		rec := p.token(id)
		rec.Kind = contracts.TransformKind(parts[1][0])
		rec.Parents = prev
		rec.History = append(rec.History, h)
		for _, pid := range prev {
			parent := p.token(pid)
			parent.Children = append(parent.Children, id)
		}
	case "Burn":
		rec := p.token(id)
		rec.Burned = true
		rec.History = append(rec.History, h)
	}
}

func (p *provenance) foldEscrow(block uint64, txHash chain.Hash, ev chain.Event) {
	parts, err := contracts.DecodeArgsVariadic(ev.Data)
	if err != nil || len(parts) == 0 {
		return
	}
	id, err := contracts.DecU64(parts[0])
	if err != nil {
		return
	}
	h := HistoryEntry{Block: block, TxHash: txHash, Name: ev.Name}
	switch ev.Name {
	case "Opened":
		// EncodeArgs(id, seller, hv, c, value).
		if len(parts) != 5 || len(parts[1]) != 20 {
			return
		}
		rec := &ExchangeRecord{ID: id, Status: ExchangeOpen}
		copy(rec.Seller[:], parts[1])
		rec.HV = append([]byte(nil), parts[2]...)
		rec.C = append([]byte(nil), parts[3]...)
		rec.Value, _ = contracts.DecU64(parts[4])
		rec.History = append(rec.History, h)
		p.exchanges[id] = rec
	case "Settled":
		// EncodeArgs(id, kc).
		rec, ok := p.exchanges[id]
		if !ok || len(parts) != 2 {
			return
		}
		rec.Status = ExchangeSettled
		rec.KC = append([]byte(nil), parts[1]...)
		rec.History = append(rec.History, h)
	case "Refunded":
		rec, ok := p.exchanges[id]
		if !ok {
			return
		}
		rec.Status = ExchangeRefunded
		rec.History = append(rec.History, h)
	}
}

// ancestorIDs reproduces contracts.Trace's walk exactly — a breadth-first
// traversal of prevIds with the start token first — so a Lineage lists its
// tokens in the order the storage walk does.
func (p *provenance) ancestorIDs(id uint64) ([]uint64, error) {
	if _, ok := p.tokens[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownToken, id)
	}
	seen := map[uint64]bool{}
	queue := []uint64{id}
	var out []uint64
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		rec, ok := p.tokens[cur]
		if !ok {
			return nil, fmt.Errorf("indexer: tracing %d: %w: %d", id, ErrUnknownToken, cur)
		}
		out = append(out, cur)
		queue = append(queue, rec.Parents...)
	}
	return out, nil
}

func (p *provenance) lineage(id uint64) (*Lineage, error) {
	ids, err := p.ancestorIDs(id)
	if err != nil {
		return nil, err
	}
	l := &Lineage{Tokens: make([]*TokenRecord, 0, len(ids))}
	inDAG := make(map[uint64]bool, len(ids))
	for _, tid := range ids {
		inDAG[tid] = true
	}
	for _, tid := range ids {
		rec := p.tokens[tid].clone()
		l.Tokens = append(l.Tokens, rec)
		for _, pid := range rec.Parents {
			if inDAG[pid] {
				l.Edges = append(l.Edges, Edge{Parent: pid, Child: tid})
			}
		}
	}
	return l, nil
}
