package core

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
)

// PiCTVerifierName is the deployment name of the π_ct range-proof verifier
// used by the confidential-token contract.
const PiCTVerifierName = "zkdet-pict-verifier"

// ErrConfidentialDisabled reports a confidential operation on a
// marketplace that never called EnableConfidential.
var ErrConfidentialDisabled = errors.New("core: confidential tokens not enabled on this marketplace")

// ConfidentialDeployment is the confidential-token extension of a
// marketplace: the deployed contract pair plus the off-chain prover.
type ConfidentialDeployment struct {
	Issuer     chain.Address
	AuditorPub bn254.G1Affine
	Token      *contracts.ConfidentialToken
	// VerifierGas and TokenGas record the two deployments' costs.
	VerifierGas uint64
	TokenGas    uint64

	prover *ct.RangeProver
	params *ct.Params
}

// EnableConfidential deploys the confidential-token subsystem onto the
// marketplace's chain: the π_ct range verifier and the token contract
// bound to the given issuer and auditor public key. It is opt-in and
// idempotent — deployments that never call it are bit-identical to
// pre-confidential ones, and a second call returns the existing
// deployment. Cluster replicas must call it at genesis with identical
// parameters, like the rest of the suite.
func (m *Marketplace) EnableConfidential(issuer chain.Address, auditorPub bn254.G1Affine) (*ConfidentialDeployment, error) {
	if m.ctd != nil {
		return m.ctd, nil
	}
	prover := ct.NewRangeProver(m.Sys.SRS())
	vk, err := prover.VK()
	if err != nil {
		return nil, fmt.Errorf("core: preparing π_ct verifier: %w", err)
	}
	d := &ConfidentialDeployment{
		Issuer:     issuer,
		AuditorPub: auditorPub,
		prover:     prover,
		params:     ct.DefaultParams(),
	}
	verifier := contracts.NewVerifier(vk)
	if d.VerifierGas, err = m.Chain.Deploy(PiCTVerifierName, verifier, contracts.VerifierCodeSize); err != nil {
		return nil, err
	}
	d.Token = contracts.NewConfidentialToken(issuer, auditorPub, PiCTVerifierName, PiKVerifierName, 100)
	if d.TokenGas, err = m.Chain.Deploy(contracts.ConfidentialTokenName, d.Token, contracts.ConfidentialTokenCodeSize); err != nil {
		return nil, err
	}
	if err := m.checker.Add(PiCTVerifierName, verifier); err != nil {
		return nil, err
	}
	if err := m.checker.Add(contracts.ConfidentialTokenName, d.Token); err != nil {
		return nil, err
	}
	m.ctd = d
	return d, nil
}

// Confidential returns the confidential deployment, or nil when disabled.
func (m *Marketplace) Confidential() *ConfidentialDeployment { return m.ctd }

// ConfNote is a wallet's view of a confidential note it can spend: the
// on-chain ID plus the private opening (amount and blinder).
type ConfNote struct {
	ID      uint64
	Owner   chain.Address
	Comm    ct.Commitment
	Opening ct.Opening
}

// ConfPayment directs one output of a confidential transfer.
type ConfPayment struct {
	Value uint64
	To    chain.Address
}

// buildOutputs samples fresh blinders for each payment and assembles the
// statement outputs plus their secrets.
func (d *ConfidentialDeployment) buildOutputs(pays []ConfPayment) ([]ct.Output, []ct.OutputSecret, []chain.Address) {
	outs := make([]ct.Output, len(pays))
	secrets := make([]ct.OutputSecret, len(pays))
	recipients := make([]chain.Address, len(pays))
	for i, pay := range pays {
		secrets[i] = ct.OutputSecret{V: pay.Value, R: fr.MustRandom(), Rho: fr.MustRandom()}
		outs[i] = d.params.NewOutput(&d.AuditorPub, pay.Value, &secrets[i].R, &secrets[i].Rho)
		recipients[i] = pay.To
	}
	return outs, secrets, recipients
}

// notesFrom turns a successful mint/transfer receipt into wallet notes.
func notesFrom(ret []byte, outs []ct.Output, secrets []ct.OutputSecret, recipients []chain.Address) ([]*ConfNote, error) {
	ids, err := contracts.DecU64List(ret)
	if err != nil || len(ids) != len(outs) {
		return nil, fmt.Errorf("core: confidential transfer returned %d ids: %w", len(ids), err)
	}
	notes := make([]*ConfNote, len(ids))
	for i, id := range ids {
		notes[i] = &ConfNote{
			ID:      id,
			Owner:   recipients[i],
			Comm:    outs[i].C,
			Opening: ct.Opening{V: secrets[i].V, R: secrets[i].R},
		}
	}
	return notes, nil
}

// ConfidentialMint mints fresh notes (issuer only). The amounts are
// hidden on-chain; the returned notes carry the openings for the
// recipients' wallets.
func (m *Marketplace) ConfidentialMint(pays []ConfPayment) ([]*ConfNote, error) {
	d := m.ctd
	if d == nil {
		return nil, ErrConfidentialDisabled
	}
	outs, secrets, recipients := d.buildOutputs(pays)
	st := &ct.Statement{
		Mint:    true,
		Outputs: outs,
		Context: contracts.CTContext(d.Issuer, nil, recipients),
	}
	proof, err := ct.Prove(d.params, d.prover, &d.AuditorPub, st, nil, secrets, nil)
	if err != nil {
		return nil, err
	}
	r, err := m.submit(d.Issuer, contracts.ConfidentialTokenName, "mint", 0,
		contracts.CTTransferArgs(nil, nil, outs, recipients, proof))
	if err != nil {
		return nil, err
	}
	return notesFrom(r.Return, outs, secrets, recipients)
}

// ConfidentialTransfer spends the sender's notes into new outputs. Input
// values must equal output values (the prover refuses otherwise; the
// chain rejects forgeries).
func (m *Marketplace) ConfidentialTransfer(sender chain.Address, ins []*ConfNote, pays []ConfPayment) ([]*ConfNote, error) {
	d := m.ctd
	if d == nil {
		return nil, ErrConfidentialDisabled
	}
	inIDs := make([]uint64, len(ins))
	inComms := make([]ct.Commitment, len(ins))
	openings := make([]ct.Opening, len(ins))
	for i, n := range ins {
		inIDs[i] = n.ID
		inComms[i] = n.Comm
		openings[i] = n.Opening
	}
	outs, secrets, recipients := d.buildOutputs(pays)
	st := &ct.Statement{
		Inputs:  inComms,
		Outputs: outs,
		Context: contracts.CTContext(sender, inIDs, recipients),
	}
	proof, err := ct.Prove(d.params, d.prover, &d.AuditorPub, st, openings, secrets, nil)
	if err != nil {
		return nil, err
	}
	r, err := m.submit(sender, contracts.ConfidentialTokenName, "transfer", 0,
		contracts.CTTransferArgs(inIDs, inComms, outs, recipients, proof))
	if err != nil {
		return nil, err
	}
	return notesFrom(r.Return, outs, secrets, recipients)
}

// SellConfidential runs the key-secure exchange of §IV-F with a
// confidential note as payment instead of native value: the buyer locks a
// note whose amount only the auditor (and the two parties) can learn, the
// seller settles with π_k, and the NFT changes hands. It returns the
// decrypted dataset as received by the buyer.
func (m *Marketplace) SellConfidential(exchangeID uint64, sellerAddr, buyerAddr chain.Address, asset *Asset, pred Predicate, payNote *ConfNote) (Dataset, error) {
	if m.ctd == nil {
		return nil, ErrConfidentialDisabled
	}
	// The price is private: carried by the note, not the listing.
	return m.sell(contracts.ConfidentialTokenName, exchangeID, sellerAddr, buyerAddr, asset, pred, 0,
		func(hv, ck []byte) error {
			_, err := m.submit(buyerAddr, contracts.ConfidentialTokenName, "lock", 0,
				contracts.EncodeArgs(contracts.U64(exchangeID), contracts.U64(payNote.ID),
					sellerAddr[:], hv, ck, contracts.U64(asset.TokenID)))
			return err
		})
}
