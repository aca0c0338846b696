package contracts

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/ct"
)

// ConfidentialTokenName is the canonical deployment name of the
// confidential-token contract.
const ConfidentialTokenName = "zkdet-ct"

// ConfidentialTokenCodeSize approximates the flattened contract size for
// deployment gas (a zkat-style UTXO transfer contract plus an escrow).
const ConfidentialTokenCodeSize = 9240

// Confidential-token errors.
var (
	ErrCTNotIssuer     = errors.New("contracts: confidential mint restricted to the issuer")
	ErrUnknownNote     = errors.New("contracts: unknown confidential note")
	ErrNotNoteOwner    = errors.New("contracts: caller does not own note")
	ErrNoteUnavailable = errors.New("contracts: note is spent or locked")
	ErrDuplicateInput  = errors.New("contracts: duplicate input note")
	ErrCTProofRejected = errors.New("contracts: confidential transfer proof rejected")
)

// note status values.
const (
	noteUnspent byte = 1
	noteSpent   byte = 2
	noteLocked  byte = 3
)

// CTNote is the public on-chain record of one confidential note: who owns
// it and the commitment hiding its amount. Everything a non-auditor sees.
type CTNote struct {
	ID     uint64
	Owner  chain.Address
	Status byte
	Comm   ct.Commitment
	Audit  ct.AuditCipher
}

// ConfidentialToken is a UTXO-style token contract whose amounts are
// Pedersen commitments (internal/ct). Methods:
//
//	mint(transferArgs)               (issuer; no inputs, creates notes)
//	transfer(transferArgs)           (spend owned notes, create new ones)
//	lock(exId, noteId, seller, hv, c, tokenId)  (buyer; locks a note as escrow payment)
//	settle(exId, kc, verifyArgs…)    (seller; π_k verified, note changes owner)
//	refund(exId)                     (buyer; after the deadline)
//	noteOf(noteId)                   (view)
//
// Every mint/transfer carries a ct.Proof: the sigma part (balance +
// auditor-ciphertext consistency) is verified in-contract, and each π_ct
// range proof (one per ct.RangeSlots outputs) is verified through the
// deployed Plonk verifier contract — which is exactly what the block's
// proof check (BlockProofChecker) folds and amortizes. lock/settle/refund
// are the exchange machine the public escrow runs, with a note as payment
// (lockedNote).
type ConfidentialToken struct {
	exchange // π_k through its verifierName
	issuer   chain.Address
	auditor  bn254.G1Affine
	params   *ct.Params
	// rangeVerifierName is the deployed π_ct verifier.
	rangeVerifierName string
}

var _ chain.Contract = (*ConfidentialToken)(nil)

// NewConfidentialToken configures the contract. issuer and auditorPub are
// genesis parameters every replica shares.
func NewConfidentialToken(issuer chain.Address, auditorPub bn254.G1Affine, rangeVerifierName, pikVerifierName string, timeoutBlocks uint64) *ConfidentialToken {
	return &ConfidentialToken{
		exchange:          exchange{space: ctSpace, verifierName: pikVerifierName, timeoutBlocks: timeoutBlocks, pay: lockedNote{}},
		issuer:            issuer,
		auditor:           auditorPub,
		params:            ct.DefaultParams(),
		rangeVerifierName: rangeVerifierName,
	}
}

func noteKey(id uint64, field string) string { return fmt.Sprintf("note/%d/%s", id, field) }

// CTSigmaGas prices the in-contract sigma verification of a confidential
// transfer on the EIP-1108 schedule: 8 scalar muls + 6 additions per
// output, 2 muls for the balance equation, and one addition per
// commitment folded into it.
func CTSigmaGas(nIn, nOut int) uint64 {
	muls := uint64(8*nOut + 2)
	adds := uint64(6*nOut + nIn + nOut + 4)
	return muls*chain.GasEcMul + adds*chain.GasEcAdd
}

// CTTransferDecoded is the parsed calldata of a mint or transfer.
type CTTransferDecoded struct {
	InIDs      []uint64
	InComms    []ct.Commitment
	Outputs    []ct.Output
	Recipients []chain.Address
	Proof      *ct.Proof
}

// CTContext builds the Fiat–Shamir context binding a transfer proof to
// its chain position: sender ‖ spent note ids ‖ recipients. Both the
// stateless gossip screen and the executing contract rebuild it from the
// same transaction fields.
func CTContext(sender chain.Address, inIDs []uint64, recipients []chain.Address) []byte {
	out := append([]byte("zkdet/ct/ctx"), sender[:]...)
	out = append(out, U64List(inIDs)...)
	for _, r := range recipients {
		out = append(out, r[:]...)
	}
	return out
}

// CTTransferArgs builds mint/transfer calldata:
// EncodeArgs(inIDs, inComms, outputs, recipients, proof).
func CTTransferArgs(inIDs []uint64, inComms []ct.Commitment, outputs []ct.Output, recipients []chain.Address, proof *ct.Proof) []byte {
	comms := make([]byte, 0, 64*len(inComms))
	for i := range inComms {
		b := inComms[i].Bytes()
		comms = append(comms, b[:]...)
	}
	outs := make([]byte, 0, 224*len(outputs))
	for i := range outputs {
		b := outputs[i].Bytes()
		outs = append(outs, b[:]...)
	}
	recips := make([]byte, 0, 20*len(recipients))
	for _, r := range recipients {
		recips = append(recips, r[:]...)
	}
	return EncodeArgs(U64List(inIDs), comms, outs, recips, proof.Bytes())
}

// DecodeCTTransfer parses mint/transfer calldata. It is stateless (input
// commitments ride in the calldata; the contract checks them against
// storage), so the gossip screen can verify the sigma proof without chain
// state.
func DecodeCTTransfer(args []byte) (*CTTransferDecoded, error) {
	p, err := DecodeArgs(args, 5)
	if err != nil {
		return nil, err
	}
	d := &CTTransferDecoded{}
	if d.InIDs, err = DecU64List(p[0]); err != nil {
		return nil, err
	}
	if len(p[1]) != 64*len(d.InIDs) {
		return nil, fmt.Errorf("%w: %d input ids, %d commitment bytes", ErrBadArgs, len(d.InIDs), len(p[1]))
	}
	d.InComms = make([]ct.Commitment, len(d.InIDs))
	for i := range d.InComms {
		if d.InComms[i], err = ct.CommitmentFromBytes(p[1][64*i : 64*(i+1)]); err != nil {
			return nil, fmt.Errorf("contracts: input %d: %w", i, err)
		}
	}
	if len(p[2]) == 0 || len(p[2])%224 != 0 {
		return nil, fmt.Errorf("%w: output blob of %d bytes", ErrBadArgs, len(p[2]))
	}
	nOut := len(p[2]) / 224
	if nOut > ct.MaxParties || len(d.InIDs) > ct.MaxParties {
		return nil, fmt.Errorf("%w: more than %d parties", ErrBadArgs, ct.MaxParties)
	}
	d.Outputs = make([]ct.Output, nOut)
	for i := range d.Outputs {
		if d.Outputs[i], err = ct.OutputFromBytes(p[2][224*i : 224*(i+1)]); err != nil {
			return nil, fmt.Errorf("contracts: output %d: %w", i, err)
		}
	}
	if len(p[3]) != 20*nOut {
		return nil, fmt.Errorf("%w: %d outputs, %d recipient bytes", ErrBadArgs, nOut, len(p[3]))
	}
	d.Recipients = make([]chain.Address, nOut)
	for i := range d.Recipients {
		copy(d.Recipients[i][:], p[3][20*i:20*(i+1)])
	}
	if d.Proof, err = ct.ProofFromBytes(p[4]); err != nil {
		return nil, fmt.Errorf("contracts: %w", err)
	}
	if len(d.Proof.Outputs) != nOut {
		return nil, fmt.Errorf("%w: proof covers %d outputs, statement has %d", ErrBadArgs, len(d.Proof.Outputs), nOut)
	}
	return d, nil
}

// Statement assembles the ct.Statement a decoded transfer proves.
func (d *CTTransferDecoded) Statement(sender chain.Address, mint bool) *ct.Statement {
	return &ct.Statement{
		Mint:    mint,
		Inputs:  d.InComms,
		Outputs: d.Outputs,
		Context: CTContext(sender, d.InIDs, d.Recipients),
	}
}

// Call dispatches a method invocation.
func (c *ConfidentialToken) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "mint":
		return c.mintOrTransfer(ctx, args, true)
	case "transfer":
		return c.mintOrTransfer(ctx, args, false)
	case "lock":
		p, err := DecodeArgs(args, 6)
		if err != nil {
			return nil, err
		}
		exID, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		noteID, err := DecU64(p[1])
		if err != nil {
			return nil, err
		}
		tokenID, err := DecU64(p[5])
		if err != nil {
			return nil, err
		}
		return nil, c.open(ctx, exID, p[2], p[3], p[4], lockTerms{note: noteID, token: tokenID})
	case "settle":
		return nil, c.settle(ctx, args)
	case "refund":
		return nil, c.refund(ctx, args)
	case "noteOf":
		p, err := DecodeArgs(args, 1)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		owner, status, err := loadNote(ctx, id)
		if err != nil {
			return nil, err
		}
		return append(owner[:], status), nil
	default:
		return nil, fmt.Errorf("contracts: confidential token has no method %q", method)
	}
}

func (c *ConfidentialToken) nextNote(ctx *chain.CallContext) (uint64, error) {
	raw, err := ctx.Store.Get("nextNote")
	if err != nil {
		return 0, err
	}
	var id uint64 = 1
	if len(raw) == 8 {
		id, _ = DecU64(raw)
	}
	if err := ctx.Store.Set("nextNote", U64(id+1)); err != nil {
		return 0, err
	}
	return id, nil
}

func loadNote(ctx *chain.CallContext, id uint64) (chain.Address, byte, error) {
	raw, err := ctx.Store.Get(noteKey(id, "owner"))
	if err != nil {
		return chain.Address{}, 0, err
	}
	if len(raw) != 21 {
		return chain.Address{}, 0, fmt.Errorf("%w: %d", ErrUnknownNote, id)
	}
	var owner chain.Address
	copy(owner[:], raw[:20])
	return owner, raw[20], nil
}

func setNoteOwner(ctx *chain.CallContext, id uint64, owner chain.Address, status byte) error {
	return ctx.Store.Set(noteKey(id, "owner"), append(append([]byte{}, owner[:]...), status))
}

// mintOrTransfer is the shared proof-carrying path. mint requires the
// issuer and no inputs; transfer requires the sender to own every input
// note unspent.
func (c *ConfidentialToken) mintOrTransfer(ctx *chain.CallContext, args []byte, mint bool) ([]byte, error) {
	d, err := DecodeCTTransfer(args)
	if err != nil {
		return nil, err
	}
	if mint {
		if ctx.Sender != c.issuer {
			return nil, ErrCTNotIssuer
		}
		if len(d.InIDs) != 0 {
			return nil, fmt.Errorf("%w: mint with inputs", ErrBadArgs)
		}
	} else if len(d.InIDs) == 0 {
		return nil, fmt.Errorf("%w: transfer without inputs", ErrBadArgs)
	}

	// Inputs: owned by the sender, unspent, and the calldata commitments
	// (which the proof was verified against) match storage.
	seen := make(map[uint64]bool, len(d.InIDs))
	for i, id := range d.InIDs {
		if seen[id] {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateInput, id)
		}
		seen[id] = true
		owner, status, err := loadNote(ctx, id)
		if err != nil {
			return nil, err
		}
		if owner != ctx.Sender {
			return nil, fmt.Errorf("%w: note %d", ErrNotNoteOwner, id)
		}
		if status != noteUnspent {
			return nil, fmt.Errorf("%w: note %d", ErrNoteUnavailable, id)
		}
		stored, err := ctx.Store.Get(noteKey(id, "comm"))
		if err != nil {
			return nil, err
		}
		cb := d.InComms[i].Bytes()
		if !bytes.Equal(stored, cb[:]) {
			return nil, fmt.Errorf("%w: note %d commitment mismatch", ErrBadArgs, id)
		}
	}

	// Sigma verification: balance + auditor-ciphertext consistency.
	if err := ctx.Gas.Charge(CTSigmaGas(len(d.InIDs), len(d.Outputs))); err != nil {
		return nil, err
	}
	ranges, err := d.Proof.RangeInstances(c.params, &c.auditor, d.Statement(ctx.Sender, mint))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCTProofRejected, err)
	}

	// Range proofs: one π_ct per ct.RangeSlots outputs through the
	// verifier contract — amortized gas when the block's proof table
	// holds the calldata.
	for g, ri := range ranges {
		if _, err := ctx.CallContract(c.rangeVerifierName, "verify", VerifyArgs(ri.Proof, ri.Public)); err != nil {
			return nil, fmt.Errorf("%w: range proof %d: %w", ErrCTProofRejected, g, err)
		}
	}

	// Spend inputs, create outputs.
	for _, id := range d.InIDs {
		if err := setNoteOwner(ctx, id, ctx.Sender, noteSpent); err != nil {
			return nil, err
		}
	}
	outIDs := make([]uint64, len(d.Outputs))
	for i := range d.Outputs {
		id, err := c.nextNote(ctx)
		if err != nil {
			return nil, err
		}
		outIDs[i] = id
		if err := setNoteOwner(ctx, id, d.Recipients[i], noteUnspent); err != nil {
			return nil, err
		}
		cb := d.Outputs[i].C.Bytes()
		if err := ctx.Store.Set(noteKey(id, "comm"), cb[:]); err != nil {
			return nil, err
		}
		ab := d.Outputs[i].Audit.Bytes()
		if err := ctx.Store.Set(noteKey(id, "audit"), ab[:]); err != nil {
			return nil, err
		}
		// Lineage events carry the commitment digest, never an amount.
		digest := d.Outputs[i].C.Digest()
		if err := ctx.EmitIndexed("CTNote", U64(id), EncodeArgs(U64(id), d.Recipients[i][:], digest[:])); err != nil {
			return nil, err
		}
	}
	event := "CTTransfer"
	if mint {
		event = "CTMint"
	}
	if err := ctx.EmitIndexed(event, U64(outIDs[0]), EncodeArgs(U64List(d.InIDs), U64List(outIDs))); err != nil {
		return nil, err
	}
	return U64List(outIDs), nil
}

// lockedNote is the confidential token's exchange payment: the same
// two-phase protocol as the public escrow, but the price is a note whose
// amount is a commitment. The buyer's note is locked at open and changes
// owner on settle or refund.
type lockedNote struct{}

func (lockedNote) lock(ctx *chain.CallContext, x *exchange, id uint64, t lockTerms) ([][]byte, error) {
	owner, status, err := loadNote(ctx, t.note)
	if err != nil {
		return nil, err
	}
	if owner != ctx.Sender {
		return nil, fmt.Errorf("%w: note %d", ErrNotNoteOwner, t.note)
	}
	if status != noteUnspent {
		return nil, fmt.Errorf("%w: note %d", ErrNoteUnavailable, t.note)
	}
	if err := setNoteOwner(ctx, t.note, owner, noteLocked); err != nil {
		return nil, err
	}
	if err := ctx.Store.Set(x.key(id, "note"), U64(t.note)); err != nil {
		return nil, err
	}
	comm, err := ctx.Store.Get(noteKey(t.note, "comm"))
	if err != nil {
		return nil, err
	}
	return [][]byte{U64(t.token), U64(t.note), comm}, nil
}

// moveNote re-owns an exchange's locked note, unspent, and returns the
// payment's event part: the note id.
func moveNote(ctx *chain.CallContext, x *exchange, id uint64, to chain.Address) ([][]byte, error) {
	noteID, err := x.getU64(ctx, id, "note")
	if err != nil {
		return nil, err
	}
	if err := setNoteOwner(ctx, noteID, to, noteUnspent); err != nil {
		return nil, err
	}
	return [][]byte{U64(noteID)}, nil
}

func (lockedNote) settle(ctx *chain.CallContext, x *exchange, id uint64, seller chain.Address) ([][]byte, error) {
	return moveNote(ctx, x, id, seller)
}

func (lockedNote) refund(ctx *chain.CallContext, x *exchange, id uint64, buyer chain.Address) ([][]byte, error) {
	return moveNote(ctx, x, id, buyer)
}

// ReadCTNote decodes a note's public record from chain storage without
// gas (off-chain view).
func ReadCTNote(c *chain.Chain, contractName string, id uint64) (*CTNote, error) {
	raw := c.ReadStorage(contractName, noteKey(id, "owner"))
	if len(raw) != 21 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNote, id)
	}
	n := &CTNote{ID: id, Status: raw[20]}
	copy(n.Owner[:], raw[:20])
	var err error
	if n.Comm, err = ct.CommitmentFromBytes(c.ReadStorage(contractName, noteKey(id, "comm"))); err != nil {
		return nil, fmt.Errorf("contracts: note %d: %w", id, err)
	}
	if n.Audit, err = ct.AuditCipherFromBytes(c.ReadStorage(contractName, noteKey(id, "audit"))); err != nil {
		return nil, fmt.Errorf("contracts: note %d: %w", id, err)
	}
	return n, nil
}
