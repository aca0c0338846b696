package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/storage"
)

// ProofRegistry is the public off-chain proof store of a ZKDET deployment.
// The chain keeps only metadata (URIs, commitments, lineage); the proofs
// themselves — like the ciphertexts — live in public storage, indexed by
// token. This mirrors the paper's setting where "all statements required
// for proof validation are publicly available".
type ProofRegistry struct {
	mu      sync.Mutex
	byToken map[uint64]*TokenProofs // guarded by mu
}

// TokenProofs bundles the published proofs of one token.
type TokenProofs struct {
	// Encryption is the token's π_e statement (its ciphertext and
	// commitments) and proof.
	Encryption      *EncryptionStatement
	EncryptionProof *plonk.Proof
	// Transform is the π_t that derived this token (nil for mints).
	Transform *TransformProof
	// Processor names the processing relation when Transform is a
	// processing proof (the verifier must rebuild the same circuit).
	Processor Processor
}

// NewProofRegistry returns an empty registry.
func NewProofRegistry() *ProofRegistry {
	return &ProofRegistry{byToken: make(map[uint64]*TokenProofs)}
}

// Publish records a token's proofs.
func (r *ProofRegistry) Publish(tokenID uint64, p *TokenProofs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byToken[tokenID] = p
}

// Lookup fetches a token's proofs.
func (r *ProofRegistry) Lookup(tokenID uint64) (*TokenProofs, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.byToken[tokenID]
	return p, ok
}

// Audit errors.
var (
	ErrAuditMissingProofs = errors.New("core: no published proofs for token")
	ErrAuditMismatch      = errors.New("core: on-chain record contradicts published proofs")
	// ErrAuditorKeyRequired reports an auditor-mode audit attempted with a
	// nil auditor key: confidential payment amounts are Pedersen-committed
	// on-chain and can only be opened by the auditor's decryption key.
	ErrAuditorKeyRequired = errors.New("core: auditor mode requires the designated auditor key")
)

// ConfidentialPayment is one opened confidential settlement in a token's
// lineage: visible only to an auditor-mode audit holding the auditor key.
type ConfidentialPayment struct {
	TokenID    uint64
	ExchangeID uint64
	NoteID     uint64
	Value      uint64
}

// AuditReport summarizes a lineage audit.
type AuditReport struct {
	// Tokens lists every audited token (the target first).
	Tokens []uint64
	// EncryptionProofs and TransformProofs count what was verified.
	EncryptionProofs int
	TransformProofs  int
	// ConfidentialPayments lists the opened confidential settlements
	// touching the lineage (auditor mode only; empty otherwise).
	ConfidentialPayments []ConfidentialPayment
}

// AuditOption tunes an AuditLineage run.
type AuditOption func(*auditConfig) error

type auditConfig struct {
	auditorKey *ct.AuditorKey // non-nil: auditor mode
}

// WithAuditorKey puts the audit in auditor mode: it additionally opens every
// confidential payment in the token's lineage with the designated auditor's
// decryption key. A nil key is refused with ErrAuditorKeyRequired — the
// amounts are not recoverable from public state.
func WithAuditorKey(key *ct.AuditorKey) AuditOption {
	return func(c *auditConfig) error {
		if key == nil {
			return ErrAuditorKeyRequired
		}
		c.auditorKey = key
		return nil
	}
}

// AuditLineage performs the full due-diligence a buyer runs before trusting
// a derived data asset (the §IV-B "evaluate datasets throughout their
// lifecycle" flow):
//
//  1. walk the token's prevIds[] lineage (Trace: logged records, checked
//     against their on-chain digests);
//  2. for every token: fetch the ciphertext by URI from storage, check it
//     matches the published π_e statement, and verify π_e;
//  3. check the on-chain commitment field binds the same commitments;
//  4. for every derived token: verify its π_t, that the proof is of the
//     kind the token was minted as, and that the proof's source commitments
//     are exactly its parents' on-chain data commitments.
//
// The walk compares records and gathers every π_e and π_t of the lineage;
// verifyAll then checks them all with one pairing, so a refused proof is
// reported after every record mismatch, by token and proof.
//
// With WithAuditorKey, the audit additionally opens every confidential
// settlement whose exchange references a lineage token, reporting the
// hidden payment amounts (designated-auditor traceability).
func (m *Marketplace) AuditLineage(reg *ProofRegistry, tokenID uint64, opts ...AuditOption) (*AuditReport, error) {
	var cfg auditConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	lineage, err := m.Trace(tokenID)
	if err != nil {
		return nil, err
	}
	report := &AuditReport{}
	var checks []proofCheck
	byID := make(map[uint64]*indexer.TokenRecord, len(lineage))
	for _, tok := range lineage {
		byID[tok.ID] = tok
		report.Tokens = append(report.Tokens, tok.ID)
	}

	for _, tok := range lineage {
		proofs, ok := reg.Lookup(tok.ID)
		if !ok {
			return nil, fmt.Errorf("%w: #%d", ErrAuditMissingProofs, tok.ID)
		}

		// (2) The stored ciphertext is the proven one.
		uri := storage.URI{}
		if len(tok.URI) != len(uri) {
			return nil, fmt.Errorf("%w: token #%d has malformed URI", ErrAuditMismatch, tok.ID)
		}
		copy(uri[:], tok.URI)
		raw, err := m.Store.Get(uri)
		if err != nil {
			return nil, fmt.Errorf("core: token #%d ciphertext: %w", tok.ID, err)
		}
		ct, err := CiphertextFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("core: token #%d ciphertext: %w", tok.ID, err)
		}
		if !ct.Nonce.Equal(&proofs.Encryption.Nonce) || len(ct.Blocks) != len(proofs.Encryption.Ciphertext) {
			return nil, fmt.Errorf("%w: token #%d ciphertext differs from π_e statement", ErrAuditMismatch, tok.ID)
		}
		for i := range ct.Blocks {
			if !ct.Blocks[i].Equal(&proofs.Encryption.Ciphertext[i]) {
				return nil, fmt.Errorf("%w: token #%d ciphertext block %d", ErrAuditMismatch, tok.ID, i)
			}
		}

		// (3) The on-chain commitment field is (c_d ‖ c_k).
		if !bytes.Equal(tok.Commitment, proofs.Encryption.commitmentField()) {
			return nil, fmt.Errorf("%w: token #%d commitment field", ErrAuditMismatch, tok.ID)
		}

		// (2 cont.) π_e verifies.
		c, err := m.Sys.encryptionCheck(proofs.Encryption, proofs.EncryptionProof)
		if err != nil {
			return nil, fmt.Errorf("core: token #%d: %w", tok.ID, err)
		}
		c.label = fmt.Sprintf("token #%d: %s", tok.ID, c.label)
		checks = append(checks, c)
		report.EncryptionProofs++

		// (4) Derived tokens carry a valid π_t linked to their parents.
		if tok.Kind == contracts.KindMint {
			continue
		}
		if proofs.Transform == nil {
			return nil, fmt.Errorf("%w: derived token #%d has no π_t", ErrAuditMissingProofs, tok.ID)
		}
		// All four kinds are one relation; the on-chain kind is what says
		// which of them this token claims to be.
		if tok.Kind.String() != string(proofs.Transform.Kind) {
			return nil, fmt.Errorf("%w: token #%d was minted as a %s but its π_t is a %s proof",
				ErrAuditMismatch, tok.ID, tok.Kind, proofs.Transform.Kind)
		}
		c, err = m.Sys.transformCheck(proofs.Transform, proofs.Processor)
		if err != nil {
			return nil, fmt.Errorf("core: token #%d: %w", tok.ID, err)
		}
		c.label = fmt.Sprintf("token #%d: %s", tok.ID, c.label)
		checks = append(checks, c)
		// The π_t's derived side must include this token's commitment...
		if !containsCommitment(proofs.Transform.Derived, proofs.Encryption.DataCommitment) {
			return nil, fmt.Errorf("%w: token #%d π_t does not derive its commitment", ErrAuditMismatch, tok.ID)
		}
		// ...and its sources must be exactly the parents' commitments.
		if len(tok.Parents) != len(proofs.Transform.Sources) {
			return nil, fmt.Errorf("%w: token #%d has %d parents but π_t has %d sources",
				ErrAuditMismatch, tok.ID, len(tok.Parents), len(proofs.Transform.Sources))
		}
		for i, pid := range tok.Parents {
			parentProofs, ok := reg.Lookup(pid)
			if !ok {
				return nil, fmt.Errorf("%w: parent #%d", ErrAuditMissingProofs, pid)
			}
			if !proofs.Transform.Sources[i].Equal(&parentProofs.Encryption.DataCommitment) {
				return nil, fmt.Errorf("%w: token #%d π_t source %d != parent #%d commitment",
					ErrAuditMismatch, tok.ID, i, pid)
			}
		}
		report.TransformProofs++
	}
	if err := verifyAll(checks); err != nil {
		return nil, err
	}

	// Auditor mode: open the confidential settlements touching this
	// lineage, enumerated from the indexer's exchange records.
	if cfg.auditorKey != nil && m.ctd != nil {
		for _, x := range m.ix.Exchanges(contracts.ConfidentialTokenName) {
			if _, inLineage := byID[x.Token]; !inLineage || x.Status != indexer.ExchangeSettled {
				continue
			}
			note, err := contracts.ReadCTNote(m.Chain, contracts.ConfidentialTokenName, x.Note)
			if err != nil {
				return nil, fmt.Errorf("core: auditing exchange %d: %w", x.ID, err)
			}
			opening, err := cfg.auditorKey.Open(m.ctd.params, note.Comm, &note.Audit)
			if err != nil {
				return nil, fmt.Errorf("core: opening note %d: %w", x.Note, err)
			}
			report.ConfidentialPayments = append(report.ConfidentialPayments, ConfidentialPayment{
				TokenID:    x.Token,
				ExchangeID: x.ID,
				NoteID:     x.Note,
				Value:      opening.V,
			})
		}
	}
	return report, nil
}

func containsCommitment(list []fr.Element, c fr.Element) bool {
	for i := range list {
		if list[i].Equal(&c) {
			return true
		}
	}
	return false
}

// PublishAsset records a freshly minted asset's proofs in the registry.
func (r *ProofRegistry) PublishAsset(a *Asset) {
	r.Publish(a.TokenID, &TokenProofs{
		Encryption:      a.Statement,
		EncryptionProof: a.EncProof,
	})
}

// PublishTransform records a transformation result: every derived asset
// shares the π_t; processing results carry their Processor for
// re-verification.
func (r *ProofRegistry) PublishTransform(res *TransformResult, proc Processor) {
	for _, a := range res.Assets {
		r.Publish(a.TokenID, &TokenProofs{
			Encryption:      a.Statement,
			EncryptionProof: a.EncProof,
			Transform:       res.Proof,
			Processor:       proc,
		})
	}
}
