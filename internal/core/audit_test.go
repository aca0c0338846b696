package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/storage"
)

func TestAuditLineageHonest(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()

	a1, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(a1)
	a2, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(a2)

	agg, err := m.Aggregate(alice, "alice", []*Asset{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(agg, nil)

	proc, err := m.Process(alice, "alice", agg.Assets[0], doubler{})
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(proc, doubler{})

	report, err := m.AuditLineage(reg, proc.Assets[0].TokenID)
	if err != nil {
		t.Fatalf("honest lineage failed audit: %v", err)
	}
	if len(report.Tokens) != 4 {
		t.Fatalf("audited %d tokens, want 4", len(report.Tokens))
	}
	if report.EncryptionProofs != 4 || report.TransformProofs != 2 {
		t.Fatalf("report: %+v", report)
	}
}

func TestAuditDetectsMissingProofs(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()
	asset, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	// Nothing published.
	if _, err := m.AuditLineage(reg, asset.TokenID); !errors.Is(err, ErrAuditMissingProofs) {
		t.Fatalf("missing proofs not reported: %v", err)
	}
}

func TestAuditDetectsTamperedStorage(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()
	asset, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(asset)
	// Corrupt the stored ciphertext: the storage layer itself detects the
	// digest mismatch.
	if !m.Store.(*storage.Store).Corrupt(asset.URI) {
		t.Fatal("corrupt hook missed")
	}
	if _, err := m.AuditLineage(reg, asset.TokenID); err == nil {
		t.Fatal("tampered ciphertext passed audit")
	}
}

func TestAuditDetectsSwappedProofs(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()

	a1, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	// Publish a2's proofs under a1's token id: statements no longer match
	// the on-chain record.
	reg.Publish(a1.TokenID, &TokenProofs{
		Encryption:      a2.Statement,
		EncryptionProof: a2.EncProof,
	})
	if _, err := m.AuditLineage(reg, a1.TokenID); !errors.Is(err, ErrAuditMismatch) {
		t.Fatalf("swapped proofs not caught: %v", err)
	}
}

func TestAuditDetectsForgedLineage(t *testing.T) {
	// A transformation published with a π_t whose sources do not match the
	// claimed parents must fail the audit.
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()

	a1, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(a1)
	dup, err := m.Duplicate(alice, "alice", a1)
	if err != nil {
		t.Fatal(err)
	}
	// Forge: publish the duplicate with a π_t derived from an unrelated
	// dataset's commitment.
	other := smallData(2)
	other[0] = fr.NewElement(424242)
	co, oo := other.Commit()
	forged, _, err := m.Sys.ProveDuplication(other, co, oo)
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(dup.Assets[0].TokenID, &TokenProofs{
		Encryption:      dup.Assets[0].Statement,
		EncryptionProof: dup.Assets[0].EncProof,
		Transform:       forged,
	})
	if _, err := m.AuditLineage(reg, dup.Assets[0].TokenID); !errors.Is(err, ErrAuditMismatch) {
		t.Fatalf("forged lineage not caught: %v", err)
	}
}

// TestAuditRefusesKindMismatch: every transformation is one relation, so the
// kind a token was minted as is what its π_t has to answer to. A token minted
// through DataNFT `process` whose published proof is a (valid) duplication
// proof must not pass.
func TestAuditRefusesKindMismatch(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()
	root, err := m.MintAsset(alice, "alice", smallData(4), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(root)
	// With one parent, `duplicate` and `process` take the same calldata.
	m.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
		if tx.Method == "duplicate" {
			tx.Method = "process"
		}
		return m.produceOne(tx)
	}
	res, err := m.Duplicate(alice, "alice", root)
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(res, nil)
	id := res.Assets[0].TokenID
	if tok, err := contracts.ReadToken(m.Chain, id); err != nil || tok.Kind != contracts.KindProcessing {
		t.Fatalf("token #%d: %+v, %v; want one minted as processing", id, tok, err)
	}
	_, err = m.AuditLineage(reg, id)
	if !errors.Is(err, ErrAuditMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("token #%d", id)) {
		t.Fatalf("processing token with a duplication π_t: audit returned %v, want ErrAuditMismatch naming token #%d", err, id)
	}
}

// TestAuditThroughBurnedToken: burn zeroes a token's kind but keeps its
// record digest, and the record's kind comes from the log, so a lineage
// through a burned token still traces and audits.
func TestAuditThroughBurnedToken(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	reg := NewProofRegistry()
	root, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(root)
	dup, err := m.Duplicate(alice, "alice", root)
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(dup, nil)
	nftCall(t, m, alice, "burn", contracts.EncodeArgs(contracts.U64(root.TokenID)))
	leaf := dup.Assets[0].TokenID

	lineage, err := m.Trace(leaf)
	if err != nil {
		t.Fatalf("trace through a burned token: %v", err)
	}
	if len(lineage) != 2 || lineage[1].ID != root.TokenID || !lineage[1].Burned || lineage[1].Kind != contracts.KindMint {
		t.Fatalf("lineage %+v, want the leaf and its burned mint", lineage)
	}
	report, err := m.AuditLineage(reg, leaf)
	if err != nil {
		t.Fatalf("audit through a burned token: %v", err)
	}
	if len(report.Tokens) != 2 || report.EncryptionProofs != 2 || report.TransformProofs != 1 {
		t.Fatalf("report %+v, want 2 tokens, 2 π_e, 1 π_t", report)
	}
}

// threeDeep mints a token and duplicates it twice, publishing every proof:
// root → mid → leaf, five proofs (three π_e, two π_t) in one lineage.
func threeDeep(t *testing.T, m *Marketplace, reg *ProofRegistry) (root *Asset, mid, leaf *TransformResult) {
	t.Helper()
	alice := chain.AddressFromString("alice")
	root, err := m.MintAsset(alice, "alice", smallData(4), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(root)
	if mid, err = m.Duplicate(alice, "alice", root); err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(mid, nil)
	if leaf, err = m.Duplicate(alice, "alice", mid.Assets[0]); err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(leaf, nil)
	return root, mid, leaf
}

// withWZeta returns a copy of p whose opening proof W_ζ is another proof's:
// a valid curve point, so the shape checks and transcript replay pass and
// only the pairing can tell.
func withWZeta(t *testing.T, p, other *plonk.Proof) *plonk.Proof {
	t.Helper()
	bad, err := plonk.ProofFromBytes(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bad.WZeta = other.WZeta
	return bad
}

// wantRefused audits tokenID and requires the error to name the token and
// proof in `names` and to be a plonk.ErrProofInvalid.
func wantRefused(t *testing.T, m *Marketplace, reg *ProofRegistry, tokenID uint64, names string) {
	t.Helper()
	_, err := m.AuditLineage(reg, tokenID)
	if !errors.Is(err, plonk.ErrProofInvalid) {
		t.Fatalf("audit error %v, want plonk.ErrProofInvalid", err)
	}
	if !strings.Contains(err.Error(), names) {
		t.Fatalf("audit error %q does not name %q", err, names)
	}
}

// TestAuditBatchNamesTheRefusedProof: the audit folds a lineage's proofs
// into one pairing, so a proof only the pairing refuses is found by
// bisection — and the error must still say which token's which proof.
func TestAuditBatchNamesTheRefusedProof(t *testing.T) {
	m, _ := newTestMarketplace(t)
	reg := NewProofRegistry()
	root, mid, leaf := threeDeep(t, m, reg)
	midTok, leafTok := mid.Assets[0], leaf.Assets[0]

	report, err := m.AuditLineage(reg, leafTok.TokenID)
	if err != nil {
		t.Fatalf("honest three-deep lineage: %v", err)
	}
	if len(report.Tokens) != 3 || report.EncryptionProofs != 3 || report.TransformProofs != 2 {
		t.Fatalf("report %+v, want 3 tokens, 3 π_e, 2 π_t", report)
	}
	// A single-token lineage is the one-proof fold.
	if report, err = m.AuditLineage(reg, root.TokenID); err != nil || report.EncryptionProofs != 1 || report.TransformProofs != 0 {
		t.Fatalf("single-token lineage: %+v, %v", report, err)
	}

	// The middle π_t with the leaf π_t's W_ζ.
	badT := *mid.Proof
	badT.Proof = withWZeta(t, mid.Proof.Proof, leaf.Proof.Proof)
	c, err := m.Sys.transformCheck(&badT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonk.NewBatch(c.vk).AddFor(c.vk, c.proof, c.public); err != nil {
		t.Fatalf("the swapped W_ζ must pass everything but the pairing: %v", err)
	}
	reg.Publish(midTok.TokenID, &TokenProofs{Encryption: midTok.Statement, EncryptionProof: midTok.EncProof, Transform: &badT})
	wantRefused(t, m, reg, leafTok.TokenID, fmt.Sprintf("token #%d: π_t (duplication)", midTok.TokenID))
	wantRefused(t, m, reg, midTok.TokenID, fmt.Sprintf("token #%d: π_t (duplication)", midTok.TokenID))
	if err := m.Sys.VerifyTransform(&badT, nil); !errors.Is(err, plonk.ErrProofInvalid) {
		t.Fatalf("VerifyTransform on the same proof: %v", err)
	}
	reg.PublishTransform(mid, nil)

	// The root π_e with the middle π_e's W_ζ.
	badE := withWZeta(t, root.EncProof, midTok.EncProof)
	reg.Publish(root.TokenID, &TokenProofs{Encryption: root.Statement, EncryptionProof: badE})
	wantRefused(t, m, reg, leafTok.TokenID, fmt.Sprintf("token #%d: π_e", root.TokenID))
	if err := m.Sys.VerifyEncryption(root.Statement, badE); !errors.Is(err, plonk.ErrProofInvalid) {
		t.Fatalf("VerifyEncryption on the same proof: %v", err)
	}
	reg.PublishAsset(root)
	if _, err := m.AuditLineage(reg, leafTok.TokenID); err != nil {
		t.Fatalf("restored lineage: %v", err)
	}
}

// TestAuditBatchAuditorMode: the auditor-mode audit of a derived token goes
// through the same fold and still opens nothing it should not.
func TestAuditBatchAuditorMode(t *testing.T) {
	m, ak, _ := newConfidentialMarketplace(t)
	reg := NewProofRegistry()
	_, _, leaf := threeDeep(t, m, reg)
	report, err := m.AuditLineage(reg, leaf.Assets[0].TokenID, WithAuditorKey(ak))
	if err != nil {
		t.Fatal(err)
	}
	if report.EncryptionProofs != 3 || report.TransformProofs != 2 || len(report.ConfidentialPayments) != 0 {
		t.Fatalf("report %+v, want 3 π_e, 2 π_t, no payments", report)
	}
}

// proofSlots lists every commitment and every opening a custom-shape proof
// (no lookup argument) carries.
func proofSlots(p *plonk.Proof) (pts []*kzg.Commitment, evs []*fr.Element) {
	ev := &p.Evals
	pts = []*kzg.Commitment{&p.A, &p.B, &p.C, &p.Z, &p.WZeta, &p.WZetaOmega}
	for i := range p.T {
		pts = append(pts, &p.T[i])
	}
	evs = []*fr.Element{&ev.A, &ev.B, &ev.C, &ev.S1, &ev.S2, &ev.ZOmega, &ev.Y}
	return pts, evs
}

// TestAuditRejectsEveryCorruption moves each commitment of one custom-shape
// π_e to another curve point and each opening to another scalar, one at
// a time, and requires AuditLineage to refuse every one — with eight
// auditors working through the list at once on one System (`make race`).
func TestAuditRejectsEveryCorruption(t *testing.T) {
	m, _ := newTestMarketplace(t)
	asset, err := m.MintAsset(chain.AddressFromString("alice"), "alice", smallData(4), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	honest := NewProofRegistry()
	honest.PublishAsset(asset)

	pts, evs := proofSlots(asset.EncProof)
	if asset.EncProof.Lookup || len(pts) != 8 || len(evs) != 7 {
		t.Fatalf("π_e carries %d commitments and %d openings, want the custom shape's 8 and 7", len(pts), len(evs))
	}
	slots := len(pts) + len(evs)
	g := bn254.G1Generator()
	one := fr.One()

	const auditors = 8
	var wg sync.WaitGroup
	for a := 0; a < auditors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			if _, err := m.AuditLineage(honest, asset.TokenID); err != nil {
				t.Errorf("auditor %d: honest π_e refused: %v", a, err)
			}
			for slot := a; slot < slots; slot += auditors {
				bad, err := plonk.ProofFromBytes(asset.EncProof.Bytes())
				if err != nil {
					t.Error(err)
					return
				}
				if pts, evs := proofSlots(bad); slot < len(pts) {
					var j bn254.G1Jac
					j.FromAffine(pts[slot])
					j.AddMixed(&g)
					pts[slot].FromJacobian(&j)
				} else {
					e := evs[slot-len(pts)]
					e.Add(e, &one)
				}
				reg := NewProofRegistry()
				reg.Publish(asset.TokenID, &TokenProofs{Encryption: asset.Statement, EncryptionProof: bad})
				if _, err := m.AuditLineage(reg, asset.TokenID); !errors.Is(err, plonk.ErrProofInvalid) {
					t.Errorf("slot %d: audit returned %v, want plonk.ErrProofInvalid", slot, err)
				}
			}
		}(a)
	}
	wg.Wait()
}
