package ct_test

import (
	"crypto/rand"
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

const rangeVerifierName = "pict-verifier"

// ctChain deploys a range verifier with vk and the confidential token, and
// mints a 100-unit note to alice with an honest proof.
func ctChain(t *testing.T, vk *plonk.VerifyingKey, pub *bn254.G1Affine) (c *chain.Chain, alice chain.Address, note uint64, opening ct.Opening) {
	t.Helper()
	c = chain.New()
	if _, err := c.Deploy(rangeVerifierName, contracts.NewVerifier(vk), contracts.VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	issuer := chain.AddressFromString("issuer")
	if _, err := c.Deploy(contracts.ConfidentialTokenName,
		contracts.NewConfidentialToken(issuer, *pub, rangeVerifierName, "pik-verifier", 10),
		contracts.ConfidentialTokenCodeSize); err != nil {
		t.Fatal(err)
	}
	alice = chain.AddressFromString("alice")
	c.Faucet(issuer, 100_000_000)
	c.Faucet(alice, 100_000_000)
	mint := []ct.OutputSecret{{V: 100, R: fr.NewElement(11), Rho: fr.NewElement(12)}}
	st := ctStatement(pub, issuer, true, nil, nil, mint, []chain.Address{alice})
	proof, err := ct.Prove(ct.DefaultParams(), ct.SharedTestProver(t), pub, st, nil, mint, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := ctCall(t, c, issuer, "mint", contracts.CTTransferArgs(nil, nil, st.Outputs, []chain.Address{alice}, proof))
	if r.Err != nil {
		t.Fatalf("mint: %v", r.Err)
	}
	ids, err := contracts.DecU64List(r.Return)
	if err != nil || len(ids) != 1 {
		t.Fatalf("mint returned %v, %v", ids, err)
	}
	return c, alice, ids[0], ct.Opening{V: 100, R: mint[0].R}
}

// ctStatement is the statement the confidential token checks for sender
// spending inIDs (opened by ins) into outs paid to recipients.
func ctStatement(pub *bn254.G1Affine, sender chain.Address, mint bool, inIDs []uint64,
	ins []ct.Opening, outs []ct.OutputSecret, recipients []chain.Address) *ct.Statement {
	p := ct.DefaultParams()
	st := &ct.Statement{Mint: mint, Context: contracts.CTContext(sender, inIDs, recipients)}
	for i := range ins {
		st.Inputs = append(st.Inputs, p.Commit(ins[i].V, &ins[i].R))
	}
	for i := range outs {
		st.Outputs = append(st.Outputs, p.NewOutput(pub, outs[i].V, &outs[i].R, &outs[i].Rho))
	}
	return st
}

// ctCall seals one confidential-token call in a block of its own.
func ctCall(t *testing.T, c *chain.Chain, from chain.Address, method string, args []byte) *chain.Receipt {
	t.Helper()
	o := c.ProduceBlock([]chain.Transaction{{
		From: from, Contract: contracts.ConfidentialTokenName, Method: method,
		Args: args, Nonce: c.NonceOf(from),
	}}).Outcomes[0]
	if o.Err != nil {
		t.Fatalf("%s: %v", method, o.Err)
	}
	return o.Receipt
}

// split is alice's 1→2 transfer of her 100-unit note: 75 to bob, 25 back.
func split(pub *bn254.G1Affine, alice chain.Address, note uint64, in ct.Opening) (*ct.Statement, []ct.Opening, []ct.OutputSecret, []chain.Address) {
	outs := []ct.OutputSecret{
		{V: 75, R: fr.NewElement(21), Rho: fr.NewElement(22)},
		{V: 25, R: fr.NewElement(23), Rho: fr.NewElement(24)},
	}
	recips := []chain.Address{chain.AddressFromString("bob"), alice}
	ins := []ct.Opening{in}
	return ctStatement(pub, alice, false, []uint64{note}, ins, outs, recips), ins, outs, recips
}

// TestRangeCircuitOnCustomShape pins π_ct's shape: custom gates and no
// lookup argument, four slots in 506 rows of a 512-row domain, nine public
// inputs, a 742-byte proof, and what a 1→2 confidential transfer pays.
func TestRangeCircuitOnCustomShape(t *testing.T) {
	rp := ct.SharedTestProver(t)
	vk, err := rp.VK()
	if err != nil {
		t.Fatal(err)
	}
	if vk.Lookup || vk.TableBits != 0 || vk.N != 512 {
		t.Fatalf("lookup=%v tableBits=%d N=%d, want no lookups, N = 512",
			vk.Lookup, vk.TableBits, vk.N)
	}
	if vk.NbPublic != 9 {
		t.Fatalf("%d public inputs, want 9 (e and a pair per slot)", vk.NbPublic)
	}
	cs, _, err := ct.BuildRangeCircuit(fr.Element{}, nil).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cs.NbGates() != 506 {
		t.Fatalf("%d rows, want 506", cs.NbGates())
	}

	ak := ct.AuditorKeyFromSecret(fr.NewElement(0x5ba9e))
	pub := ak.PublicKey()
	c, alice, note, in := ctChain(t, vk, &pub)
	st, ins, outs, recips := split(&pub, alice, note, in)
	proof, err := ct.Prove(ct.DefaultParams(), rp, &pub, st, ins, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Ranges) != 1 {
		t.Fatalf("%d range proofs for two outputs, want 1", len(proof.Ranges))
	}
	if got := len(proof.Ranges[0].Bytes()); got != 742 {
		t.Fatalf("π_ct is %d bytes, want 742", got)
	}
	r := ctCall(t, c, alice, "transfer", contracts.CTTransferArgs([]uint64{note}, st.Inputs, st.Outputs, recips, proof))
	if r.Err != nil {
		t.Fatalf("transfer: %v", r.Err)
	}
	// 786 953 → 788 489 when π_ct left the lookup shape: its proof grew
	// 1 030 → 1 158 bytes, 128 calldata bytes at 12 gas each. 788 489 →
	// 783 497 with version-3 proofs: 1 158 → 742 bytes, 416 bytes fewer.
	const wantGas = 783_497
	if r.GasUsed != wantGas {
		t.Fatalf("1→2 transfer used %d gas, want %d", r.GasUsed, wantGas)
	}
}

// TestRangeVerifierRefusesLookupShape feeds the deployed range verifier an
// honest π_ct made on the lookup + custom shape, the range table beside
// custom gates: ct.Verify refuses it with plonk.ErrProofShape, and so do the
// confidential token and the block checker, without a panic.
func TestRangeVerifierRefusesLookupShape(t *testing.T) {
	tau := fr.NewElement(0x5eed2025)
	bigSRS, err := kzg.NewSRSFromSecret(4*4096+16, &tau)
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := ct.LookupRangeCircuit(fr.Element{}, nil).Compile()
	if err != nil {
		t.Fatal(err)
	}
	lkPK, lkVK, err := plonk.Setup(cs, bigSRS)
	if err != nil {
		t.Fatal(err)
	}
	if !lkVK.Lookup || lkVK.N != 4096 {
		t.Fatalf("lookup + custom key: lookup=%v N=%d, want the lookup + custom 4 096-row shape", lkVK.Lookup, lkVK.N)
	}
	vk, err := ct.SharedTestProver(t).VK()
	if err != nil {
		t.Fatal(err)
	}

	p := ct.DefaultParams()
	ak := ct.AuditorKeyFromSecret(fr.NewElement(0x01d))
	pub := ak.PublicKey()
	c, alice, note, in := ctChain(t, vk, &pub)
	st, ins, outs, recips := split(&pub, alice, note, in)
	proof, e, slots, err := ct.ProveSigma(p, &pub, st, ins, outs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, witness, err := ct.LookupRangeCircuit(e, slots).Compile()
	if err != nil {
		t.Fatal(err)
	}
	lk, err := plonk.Prove(lkPK, witness)
	if err != nil {
		t.Fatal(err)
	}
	proof.Ranges = []*plonk.Proof{lk}
	if got := len(lk.Bytes()); got != plonk.MaxProofSize {
		t.Fatalf("lookup-shape π_ct is %d bytes, want %d", got, plonk.MaxProofSize)
	}
	if err := ct.Verify(p, lkVK, &pub, st, proof); err != nil {
		t.Fatalf("the lookup-shape proof does not verify under its own key: %v", err)
	}
	if err := ct.Verify(p, vk, &pub, st, proof); !errors.Is(err, ct.ErrProofInvalid) || !errors.Is(err, plonk.ErrProofShape) {
		t.Fatalf("ct.Verify: got %v, want ErrProofInvalid wrapping plonk.ErrProofShape", err)
	}

	args := contracts.CTTransferArgs([]uint64{note}, st.Inputs, st.Outputs, recips, proof)
	r := ctCall(t, c, alice, "transfer", args)
	if !errors.Is(r.Err, contracts.ErrCTProofRejected) || !errors.Is(r.Err, plonk.ErrProofShape) {
		t.Fatalf("contract: got %v, want ErrCTProofRejected wrapping plonk.ErrProofShape", r.Err)
	}
	bc := contracts.NewBlockProofChecker()
	if err := bc.Add(rangeVerifierName, contracts.NewVerifier(vk)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Add(contracts.ConfidentialTokenName, contracts.NewConfidentialToken(
		chain.AddressFromString("issuer"), pub, rangeVerifierName, "pik-verifier", 10)); err != nil {
		t.Fatal(err)
	}
	tx := &chain.Transaction{From: alice, Contract: contracts.ConfidentialTokenName, Method: "transfer", Args: args}
	if n, errs := bc.GossipCheck([]*chain.Transaction{tx}); n != 0 || !errors.Is(errs[0], plonk.ErrProofShape) {
		t.Fatalf("block checker: %d verified, err %v; want 0 and plonk.ErrProofShape", n, errs[0])
	}
}
