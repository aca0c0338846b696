package contracts

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
)

// DataNFTName is the canonical deployment name of the token contract.
const DataNFTName = "zkdet-nft"

// DataNFTCodeSize approximates the flattened-Solidity byte size of the
// paper's ERC-721 contract, calibrated so deployment gas matches Table II
// (≈1,020,954).
const DataNFTCodeSize = 4840

// TransformKind labels how a token came to exist (§III-B operations 1–7).
type TransformKind byte

// Transformation kinds. Minting starts at 1 per Go enum convention.
const (
	KindMint TransformKind = iota + 1
	KindAggregation
	KindPartition
	KindDuplication
	KindProcessing
)

// String returns the kind's display name.
func (k TransformKind) String() string {
	switch k {
	case KindMint:
		return "mint"
	case KindAggregation:
		return "aggregation"
	case KindPartition:
		return "partition"
	case KindDuplication:
		return "duplication"
	case KindProcessing:
		return "processing"
	default:
		return fmt.Sprintf("unknown(%d)", byte(k))
	}
}

// Token is a data NFT as contract storage holds it: owner and kind, and the
// RecordDigest of the immutable record its mint's events carry.
type Token struct {
	ID     uint64
	Owner  chain.Address
	Kind   TransformKind // zero once burned
	Burned bool
	Record [32]byte
}

// DataNFT errors.
var (
	ErrUnknownToken   = errors.New("contracts: unknown token")
	ErrNotTokenOwner  = errors.New("contracts: caller does not own token")
	ErrTokenBurned    = errors.New("contracts: token is burned")
	ErrNoParents      = errors.New("contracts: transformation needs parent tokens")
	ErrRecordMismatch = errors.New("contracts: token record does not match its on-chain digest")
)

// DataNFT is the ERC-721-style token contract with the prevIds[] lineage
// extension. Methods:
//
//	mint(uri, commitment)                       → id
//	transfer(id, to)
//	burn(id)
//	approve(id, operator)
//	transferFrom(id, from, to)                  (operator only)
//	aggregate(prevIds, uri, commitment)         → id
//	partition(prevId, uris, commitments)        → ids
//	duplicate(prevId, uri, commitment)          → id
//	process(prevIds, uri, commitment)           → id
//	ownerOf(id) / tokenMeta(id)                 (views)
//
// A token stores owner‖kind and the RecordDigest of its immutable record;
// the record rides in the mint's Transfer (URI, commitment) and Transform
// (kind, prevIds) events at log-byte prices, which keeps invocation gas near
// the paper's Table II numbers. Burn zeroes the kind and keeps the digest.
type DataNFT struct{}

var _ chain.Contract = (*DataNFT)(nil)

// Call dispatches a method invocation.
func (d *DataNFT) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "mint":
		p, err := DecodeArgs(args, 2)
		if err != nil {
			return nil, err
		}
		id, err := d.mintToken(ctx, ctx.Sender, KindMint, p[0], p[1], nil)
		if err != nil {
			return nil, err
		}
		return U64(id), nil
	case "transfer":
		p, err := DecodeArgs(args, 2)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		var to chain.Address
		if len(p[1]) != len(to) {
			return nil, fmt.Errorf("%w: bad address", ErrBadArgs)
		}
		copy(to[:], p[1])
		return nil, d.transfer(ctx, id, ctx.Sender, to)
	case "transferFrom":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		var from, to chain.Address
		if len(p[1]) != len(from) || len(p[2]) != len(to) {
			return nil, fmt.Errorf("%w: bad address", ErrBadArgs)
		}
		copy(from[:], p[1])
		copy(to[:], p[2])
		return nil, d.transferFrom(ctx, id, from, to)
	case "approve":
		p, err := DecodeArgs(args, 2)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		return nil, d.approve(ctx, id, p[1])
	case "burn":
		p, err := DecodeArgs(args, 1)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		return nil, d.burn(ctx, id)
	case "aggregate":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return nil, err
		}
		prev, err := DecU64List(p[0])
		if err != nil {
			return nil, err
		}
		if len(prev) < 2 {
			return nil, fmt.Errorf("%w: aggregation needs at least 2 parents", ErrNoParents)
		}
		id, err := d.transformToken(ctx, KindAggregation, prev, p[1], p[2])
		if err != nil {
			return nil, err
		}
		return U64(id), nil
	case "duplicate":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return nil, err
		}
		prev, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		id, err := d.transformToken(ctx, KindDuplication, []uint64{prev}, p[1], p[2])
		if err != nil {
			return nil, err
		}
		return U64(id), nil
	case "process":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return nil, err
		}
		prev, err := DecU64List(p[0])
		if err != nil {
			return nil, err
		}
		if len(prev) == 0 {
			return nil, ErrNoParents
		}
		id, err := d.transformToken(ctx, KindProcessing, prev, p[1], p[2])
		if err != nil {
			return nil, err
		}
		return U64(id), nil
	case "partition":
		p, err := DecodeArgsVariadic(args)
		if err != nil {
			return nil, err
		}
		// Layout: prevId, then pairs of (uri, commitment).
		if len(p) < 3 || (len(p)-1)%2 != 0 {
			return nil, fmt.Errorf("%w: partition wants prevId + k·(uri, commitment)", ErrBadArgs)
		}
		prev, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		k := (len(p) - 1) / 2
		if k < 2 {
			return nil, fmt.Errorf("%w: partition must yield at least 2 tokens", ErrBadArgs)
		}
		ids := make([]uint64, k)
		for i := 0; i < k; i++ {
			id, err := d.transformToken(ctx, KindPartition, []uint64{prev}, p[1+2*i], p[2+2*i])
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		return U64List(ids), nil
	case "ownerOf":
		p, err := DecodeArgs(args, 1)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		tok, err := d.load(ctx, id)
		if err != nil {
			return nil, err
		}
		return tok.Owner[:], nil
	default:
		return nil, fmt.Errorf("contracts: datanft has no method %q", method)
	}
}

func tokenKey(id uint64, field string) string {
	return fmt.Sprintf("token/%d/%s", id, field)
}

func (d *DataNFT) nextID(ctx *chain.CallContext) (uint64, error) {
	raw, err := ctx.Store.Get("nextId")
	if err != nil {
		return 0, err
	}
	var id uint64 = 1
	if len(raw) == 8 {
		id, _ = DecU64(raw)
	}
	if err := ctx.Store.Set("nextId", U64(id+1)); err != nil {
		return 0, err
	}
	return id, nil
}

func (d *DataNFT) mintToken(ctx *chain.CallContext, owner chain.Address, kind TransformKind, uri, commitment []byte, prev []uint64) (uint64, error) {
	id, err := d.nextID(ctx)
	if err != nil {
		return 0, err
	}
	// owner ‖ kind packs into one slot.
	ownerKind := append(append([]byte{}, owner[:]...), byte(kind))
	if err := ctx.Store.Set(tokenKey(id, "owner"), ownerKind); err != nil {
		return 0, err
	}
	pre := recordPreimage(kind, uri, commitment, prev)
	if err := ctx.Gas.Charge(chain.GasHashBase + chain.GasHashPerWord*uint64((len(pre)+31)/32)); err != nil {
		return 0, err
	}
	digest := sha256.Sum256(pre)
	if err := ctx.Store.Set(tokenKey(id, "record"), digest[:]); err != nil {
		return 0, err
	}
	if err := d.adjustBalance(ctx, owner, 1); err != nil {
		return 0, err
	}
	if err := ctx.EmitIndexed("Transfer", U64(id), EncodeArgs(U64(id), nil, owner[:], uri, commitment)); err != nil {
		return 0, err
	}
	return id, nil
}

// recordTag separates a token record digest from every other sha256 taken.
const recordTag = "zkdet/token-record/v1"

func recordPreimage(kind TransformKind, uri, commitment []byte, prev []uint64) []byte {
	return append([]byte(recordTag), EncodeArgs([]byte{byte(kind)}, uri, commitment, U64List(prev))...)
}

// RecordDigest is what a token's record slot holds: sha256 over a domain tag
// and the immutable record — kind, URI, commitment, parents — in the call
// encoding.
func RecordDigest(kind TransformKind, uri, commitment []byte, prev []uint64) [32]byte {
	return sha256.Sum256(recordPreimage(kind, uri, commitment, prev))
}

// transformToken mints a derived token; the caller must own every parent.
func (d *DataNFT) transformToken(ctx *chain.CallContext, kind TransformKind, prev []uint64, uri, commitment []byte) (uint64, error) {
	for _, pid := range prev {
		tok, err := d.load(ctx, pid)
		if err != nil {
			return 0, err
		}
		if tok.Owner != ctx.Sender {
			return 0, fmt.Errorf("%w: parent %d", ErrNotTokenOwner, pid)
		}
	}
	id, err := d.mintToken(ctx, ctx.Sender, kind, uri, commitment, prev)
	if err != nil {
		return 0, err
	}
	if err := ctx.EmitIndexed("Transform", U64(id), EncodeArgs(U64(id), []byte{byte(kind)}, U64List(prev))); err != nil {
		return 0, err
	}
	return id, nil
}

func (d *DataNFT) load(ctx *chain.CallContext, id uint64) (*Token, error) {
	raw, err := ctx.Store.Get(tokenKey(id, "owner"))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownToken, id)
	}
	if len(raw) != 21 {
		return nil, fmt.Errorf("contracts: corrupt owner record for token %d", id)
	}
	tok := &Token{ID: id, Kind: TransformKind(raw[20])}
	copy(tok.Owner[:], raw[:20])
	if tok.Kind == 0 {
		return nil, fmt.Errorf("%w: %d", ErrTokenBurned, id)
	}
	return tok, nil
}

func (d *DataNFT) adjustBalance(ctx *chain.CallContext, a chain.Address, delta int64) error {
	key := "balance/" + string(a[:])
	raw, err := ctx.Store.Get(key)
	if err != nil {
		return err
	}
	var n uint64
	if len(raw) == 8 {
		n, _ = DecU64(raw)
	}
	n = uint64(int64(n) + delta)
	return ctx.Store.Set(key, U64(n))
}

func (d *DataNFT) transfer(ctx *chain.CallContext, id uint64, from, to chain.Address) error {
	tok, err := d.load(ctx, id)
	if err != nil {
		return err
	}
	if tok.Owner != from {
		return fmt.Errorf("%w: token %d", ErrNotTokenOwner, id)
	}
	ownerKind := append(append([]byte{}, to[:]...), byte(tok.Kind))
	if err := ctx.Store.Set(tokenKey(id, "owner"), ownerKind); err != nil {
		return err
	}
	if err := d.adjustBalance(ctx, from, -1); err != nil {
		return err
	}
	if err := d.adjustBalance(ctx, to, 1); err != nil {
		return err
	}
	return ctx.EmitIndexed("Transfer", U64(id), EncodeArgs(U64(id), from[:], to[:]))
}

func (d *DataNFT) approve(ctx *chain.CallContext, id uint64, operator []byte) error {
	tok, err := d.load(ctx, id)
	if err != nil {
		return err
	}
	if tok.Owner != ctx.Sender {
		return fmt.Errorf("%w: token %d", ErrNotTokenOwner, id)
	}
	return ctx.Store.Set(tokenKey(id, "operator"), operator)
}

func (d *DataNFT) transferFrom(ctx *chain.CallContext, id uint64, from, to chain.Address) error {
	op, err := ctx.Store.Get(tokenKey(id, "operator"))
	if err != nil {
		return err
	}
	if len(op) != 20 || chain.Address([20]byte(op)) != ctx.Sender {
		return fmt.Errorf("%w: caller not approved for token %d", ErrNotTokenOwner, id)
	}
	if err := ctx.Store.Delete(tokenKey(id, "operator")); err != nil {
		return err
	}
	return d.transfer(ctx, id, from, to)
}

func (d *DataNFT) burn(ctx *chain.CallContext, id uint64) error {
	tok, err := d.load(ctx, id)
	if err != nil {
		return err
	}
	if tok.Owner != ctx.Sender {
		return fmt.Errorf("%w: token %d", ErrNotTokenOwner, id)
	}
	// Zero the kind byte (burn marker) but keep the record digest: burned
	// tokens stay traceable, as §III-B requires.
	ownerKind := append(append([]byte{}, tok.Owner[:]...), 0)
	if err := ctx.Store.Set(tokenKey(id, "owner"), ownerKind); err != nil {
		return err
	}
	if err := d.adjustBalance(ctx, tok.Owner, -1); err != nil {
		return err
	}
	return ctx.EmitIndexed("Burn", U64(id), EncodeArgs(U64(id), tok.Owner[:]))
}

// ReadToken reads a token's storage without gas (an off-chain view): owner,
// kind, burn marker and record digest.
func ReadToken(c *chain.Chain, id uint64) (*Token, error) {
	raw := c.ReadStorage(DataNFTName, tokenKey(id, "owner"))
	if len(raw) != 21 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownToken, id)
	}
	tok := &Token{ID: id, Kind: TransformKind(raw[20]), Burned: raw[20] == 0}
	copy(tok.Owner[:], raw[:20])
	copy(tok.Record[:], c.ReadStorage(DataNFTName, tokenKey(id, "record")))
	return tok, nil
}
