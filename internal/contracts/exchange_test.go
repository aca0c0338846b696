package contracts

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
)

// ctSettleFixture is a chain holding one open confidential exchange (id 1,
// a minted note locked by alice for bob), with the block proof checker over
// the π_k and π_ct verifiers and the token installed; it returns the chain,
// the checker and bob's settle transaction carrying a valid π_k. The
// genesis is deterministic, so two fixtures are replicas of each other.
func ctSettleFixture(t *testing.T) (*chain.Chain, *BlockProofChecker, chain.Transaction) {
	t.Helper()
	ef, cs := escrowProofSystem(), ctSystem()
	issuer, alice, bob := chain.AddressFromString("issuer"), chain.AddressFromString("alice"), chain.AddressFromString("bob")
	c := chain.New()
	bc := NewBlockProofChecker()
	for _, d := range []struct {
		name string
		ct   chain.Contract
		size int
	}{
		{"pik-verifier", NewVerifier(ef.vk), VerifierCodeSize},
		{testPiCTVerifier, NewVerifier(cs.vk), VerifierCodeSize},
		{ConfidentialTokenName, NewConfidentialToken(issuer, cs.pub, testPiCTVerifier, "pik-verifier", 10), ConfidentialTokenCodeSize},
	} {
		if _, err := c.Deploy(d.name, d.ct, d.size); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, bc, d.name, d.ct)
	}
	c.SetBlockVerifier(bc)
	for _, a := range []chain.Address{issuer, alice, bob} {
		c.Faucet(a, 100_000_000)
	}
	mint := ctProve(t, issuer, true, nil, nil,
		[]ct.OutputSecret{{V: 500, R: fr.NewElement(91), Rho: fr.NewElement(92)}}, []chain.Address{alice})
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, mint))
	ids, _ := DecU64List(r.Return)
	kc, cc, hv := ef.witness[0].Bytes(), ef.witness[1].Bytes(), ef.witness[2].Bytes()
	mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "lock", 0,
		EncodeArgs(U64(1), U64(ids[0]), bob[:], hv[:], cc[:], U64(7))))
	c.ProduceBlock(nil)
	return c, bc, chain.Transaction{From: bob, Contract: ConfidentialTokenName, Method: "settle",
		Args: EncodeArgs(U64(1), kc[:], ef.proofs[0].Bytes(), kc[:], cc[:], hv[:])}
}

// TestBlockProofCheckerConfidentialSettle: a confidential settlement's π_k
// goes through the checker's one settle arm, like the escrow's. A corrupted
// one is refused at the gossip screen and evicted by the producer instead
// of being sealed as a reverted receipt; a valid one is entered in the
// block's table, folded at width 1, and charged exactly the standalone
// VerificationGas(3) an eager replica pays.
func TestBlockProofCheckerConfidentialSettle(t *testing.T) {
	c, bc, valid := ctSettleFixture(t)
	parts, err := DecodeArgsVariadic(valid.Args)
	if err != nil {
		t.Fatal(err)
	}
	forged := valid
	forged.Args = EncodeArgs(append([][]byte{parts[0], parts[1], breakProof(escrowProofSystem().proofs[0]).Bytes()}, parts[3:]...)...)

	n, errs := bc.GossipCheck([]*chain.Transaction{&forged, &valid})
	if n != 1 || !errors.Is(errs[0], ErrProofRejected) || errs[1] != nil {
		t.Fatalf("gossip screen: %d verified, errs %v; want 1 and the forged π_k rejected", n, errs)
	}
	res := c.ProduceBlock([]chain.Transaction{forged})
	if res.ProofsEvicted != 1 || len(res.Block.TxHashes) != 0 || !errors.Is(res.Outcomes[0].Err, ErrProofRejected) {
		t.Fatalf("forged settle: evicted %d, %d txs sealed, outcome %+v", res.ProofsEvicted, len(res.Block.TxHashes), res.Outcomes[0])
	}

	marks, errs := bc.CheckBlock([]*chain.Transaction{&valid})
	if errs[0] != nil || marks.Txs != 1 || marks.Items != 1 || marks.Width[chain.ProofKey("pik-verifier", EncodeArgs(parts[2:]...))] != 1 {
		t.Fatalf("valid settle: marks %+v, errs %v; want its π_k in the table at width 1", marks, errs)
	}
	res = c.ProduceBlock([]chain.Transaction{valid})
	folded := res.Outcomes[0].Receipt
	if res.Block.Fold != 1 || res.ProofsVerified != 1 || folded == nil || folded.Err != nil {
		t.Fatalf("valid settle: fold %d, verified %d, outcome %+v", res.Block.Fold, res.ProofsVerified, res.Outcomes[0])
	}
	control, _, _ := ctSettleFixture(t)
	eager := mustSucceed(t, call(t, control, valid.From, ConfidentialTokenName, "settle", 0, valid.Args))
	if folded.GasUsed != eager.GasUsed {
		t.Fatalf("folded settle charged %d, eager control %d: a width-1 fold must cost VerificationGas(3)", folded.GasUsed, eager.GasUsed)
	}
}
