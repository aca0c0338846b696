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
// purely from events — it never reads contract storage, which binds the
// immutable Kind, URI, Commitment and Parents with contracts.RecordDigest.
type TokenRecord struct {
	ID         uint64
	Kind       contracts.TransformKind
	Owner      chain.Address
	URI        []byte // content address of the encrypted dataset
	Commitment []byte // c_d ‖ c_k, as minted
	Parents    []uint64
	Children   []uint64
	Burned     bool
	History    []HistoryEntry
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

// ExchangeRecord is the folded view of one exchange on either contract that
// carries the exchange machine (contracts.EscrowName,
// contracts.ConfidentialTokenName). Each contract's callers choose its ids,
// so a record is named by its contract and id together.
type ExchangeRecord struct {
	Contract string
	ID       uint64
	Seller   chain.Address
	HV       []byte
	C        []byte
	Value    uint64 // the escrow's locked value
	Token    uint64 // the data token a confidential exchange sells
	Note     uint64 // the note a confidential exchange locks
	Status   string
	KC       []byte // blinded key k_c, present once settled
	History  []HistoryEntry
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

// provenance folds DataNFT and exchange events into per-token and
// per-exchange records. All methods run under the owning Indexer's lock.
type provenance struct {
	tokens    map[uint64]*TokenRecord
	exchanges map[string]*exchangeBook // the escrow's and the confidential token's
}

// exchangeBook is one contract's exchanges, by id and in open order.
type exchangeBook struct {
	byID   map[uint64]*ExchangeRecord
	opened []*ExchangeRecord
}

func newProvenance() *provenance {
	return &provenance{
		tokens: make(map[uint64]*TokenRecord),
		exchanges: map[string]*exchangeBook{
			contracts.EscrowName:            {byID: make(map[uint64]*ExchangeRecord)},
			contracts.ConfidentialTokenName: {byID: make(map[uint64]*ExchangeRecord)},
		},
	}
}

func (p *provenance) fold(block uint64, txHash chain.Hash, ev chain.Event) {
	switch ev.Contract {
	case contracts.DataNFTName:
		p.foldNFT(block, txHash, ev)
	case contracts.EscrowName, contracts.ConfidentialTokenName:
		p.foldExchange(block, txHash, ev)
	}
}

// foldNFT folds one DataNFT event. Only a mint opens a token's record: an
// indexer that never saw the mint — it was pruned before this indexer
// started — holds no record of the token, rather than one without its URI
// and commitment.
func (p *provenance) foldNFT(block uint64, txHash chain.Hash, ev chain.Event) {
	parts, err := contracts.DecodeArgsVariadic(ev.Data)
	if err != nil || len(parts) == 0 {
		return // not a payload we understand; leave the raw event queryable
	}
	id, err := contracts.DecU64(parts[0])
	if err != nil {
		return
	}
	rec, known := p.tokens[id]
	h := HistoryEntry{Block: block, TxHash: txHash, Name: ev.Name}
	switch ev.Name {
	case "Transfer":
		// EncodeArgs(id, from, to), or on a mint EncodeArgs(id, nil, to, uri,
		// commitment). URI and commitment stay slices of the event's data.
		if (len(parts) != 3 && len(parts) != 5) || len(parts[2]) != 20 {
			return
		}
		if len(parts) == 5 {
			if !known {
				rec = &TokenRecord{ID: id, Kind: contracts.KindMint}
				p.tokens[id] = rec
			}
			rec.URI, rec.Commitment = parts[3], parts[4]
		} else if !known {
			return
		}
		copy(rec.Owner[:], parts[2])
		rec.History = append(rec.History, h)
	case "Transform":
		// EncodeArgs(id, kind, prevIds), after the token's mint Transfer.
		if !known || len(parts) != 3 || len(parts[1]) != 1 {
			return
		}
		prev, err := contracts.DecU64List(parts[2])
		if err != nil {
			return
		}
		rec.Kind = contracts.TransformKind(parts[1][0])
		rec.Parents = prev
		rec.History = append(rec.History, h)
		for _, pid := range prev {
			if parent, ok := p.tokens[pid]; ok {
				parent.Children = append(parent.Children, id)
			}
		}
	case "Burn":
		if !known {
			return
		}
		rec.Burned = true
		rec.History = append(rec.History, h)
	}
}

// foldExchange folds one event of the exchange machine, on whichever
// contract carries it: Opened (id, seller, h_v, c, part…), Settled (id, k_c,
// part…) and Refunded (id, part…). Only Opened's payment part is read: the
// escrow's is the value, the confidential token's (token, note, note
// commitment). The record's byte fields stay slices of the event's data.
func (p *provenance) foldExchange(block uint64, txHash chain.Hash, ev chain.Event) {
	parts, err := contracts.DecodeArgsVariadic(ev.Data)
	if err != nil || len(parts) == 0 {
		return
	}
	id, err := contracts.DecU64(parts[0])
	if err != nil {
		return
	}
	book := p.exchanges[ev.Contract]
	rec, known := book.byID[id]
	h := HistoryEntry{Block: block, TxHash: txHash, Name: ev.Name}
	switch ev.Name {
	case "Opened":
		if len(parts) < 4 || len(parts[1]) != 20 {
			return
		}
		rec = &ExchangeRecord{Contract: ev.Contract, ID: id, HV: parts[2], C: parts[3], Status: ExchangeOpen}
		copy(rec.Seller[:], parts[1])
		switch part := parts[4:]; {
		case ev.Contract == contracts.EscrowName && len(part) == 1:
			rec.Value, _ = contracts.DecU64(part[0])
		case ev.Contract == contracts.ConfidentialTokenName && len(part) == 3:
			rec.Token, _ = contracts.DecU64(part[0])
			rec.Note, _ = contracts.DecU64(part[1])
		default:
			return
		}
		rec.History = append(rec.History, h)
		book.byID[id] = rec
		book.opened = append(book.opened, rec)
	case "Settled":
		if !known || len(parts) < 2 {
			return
		}
		rec.Status = ExchangeSettled
		rec.KC = parts[1]
		rec.History = append(rec.History, h)
	case "Refunded":
		if !known {
			return
		}
		rec.Status = ExchangeRefunded
		rec.History = append(rec.History, h)
	}
}

// ancestorIDs is the lineage walk, Figure 2's provenance query: a
// breadth-first traversal of prevIds with the start token first.
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
