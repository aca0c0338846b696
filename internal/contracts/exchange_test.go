package contracts

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
)

// machineUnderTest is one contract carrying the exchange machine, driven
// through its own opening call (escrow open, confidential lock) and the
// settle/refund calldata both share.
type machineUnderTest struct {
	name string
	open func(id uint64, seller []byte) error
}

// TestExchangeStateMachine runs every refusal of the exchange machine
// against both contracts that carry it: each case must revert with the same
// typed error and the same text after the contract's own prefix. It then
// reads the settled k_c back through the one reader, from both.
func TestExchangeStateMachine(t *testing.T) {
	c, issuer, buyer, seller := ctEnv(t)
	parts := deployToyPiK(t, c)
	if _, err := c.Deploy(EscrowName, NewEscrow("pik-verifier", 10), EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	proof, kc, cc, hv := parts[0], parts[1], parts[2], parts[3]

	// The confidential buyer locks one fresh note per exchange it opens.
	secrets := make([]ct.OutputSecret, 8)
	recipients := make([]chain.Address, len(secrets))
	for i := range secrets {
		secrets[i] = ct.OutputSecret{V: uint64(10 + i), R: fr.NewElement(uint64(81 + 2*i)), Rho: fr.NewElement(uint64(82 + 2*i))}
		recipients[i] = buyer
	}
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, ctProve(t, issuer, true, nil, nil, secrets, recipients)))
	notes, err := DecU64List(r.Return)
	if err != nil {
		t.Fatal(err)
	}

	machines := []machineUnderTest{
		{EscrowName, func(id uint64, s []byte) error {
			return call(t, c, buyer, EscrowName, "open", 100, EncodeArgs(U64(id), s, hv, cc)).Err
		}},
		{ConfidentialTokenName, func(id uint64, s []byte) error {
			err := call(t, c, buyer, ConfidentialTokenName, "lock", 0, EncodeArgs(U64(id), U64(notes[0]), s, hv, cc, U64(7))).Err
			if err == nil {
				notes = notes[1:]
			}
			return err
		}},
	}
	settle := func(x machineUnderTest, from chain.Address, id uint64, hv []byte) error {
		return call(t, c, from, x.name, "settle", 0, EncodeArgs(U64(id), kc, proof, kc, cc, hv)).Err
	}
	refund := func(x machineUnderTest, from chain.Address, id uint64) error {
		return call(t, c, from, x.name, "refund", 0, EncodeArgs(U64(id))).Err
	}
	expire := func() {
		for i := 0; i < 11; i++ {
			c.ProduceBlock(nil)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	wrongHvEl := fr.NewElement(21)
	wrongHv := wrongHvEl.Bytes()

	cases := []struct {
		name string
		run  func(x machineUnderTest, id uint64) error
		want error
	}{
		{"unknown id", func(x machineUnderTest, id uint64) error {
			return settle(x, seller, id, hv)
		}, ErrUnknownExchange},
		{"duplicate open", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return x.open(id, seller[:])
		}, ErrExchangeExists},
		{"bad seller address", func(x machineUnderTest, id uint64) error {
			return x.open(id, []byte{1, 2})
		}, ErrBadArgs},
		{"wrong seller", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return settle(x, buyer, id, hv)
		}, ErrNotSeller},
		{"mismatched publics", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return settle(x, seller, id, wrongHv[:])
		}, ErrBadArgs},
		{"settle after the deadline", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			expire()
			return settle(x, seller, id, hv)
		}, ErrDeadlinePassed},
		{"double settle", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			must(settle(x, seller, id, hv))
			return settle(x, seller, id, hv)
		}, ErrExchangeSettled},
		{"refund before the deadline", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return refund(x, buyer, id)
		}, ErrDeadlineNotReached},
		{"wrong buyer", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			expire()
			return refund(x, seller, id)
		}, ErrNotBuyer},
		{"refund after settle", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			must(settle(x, seller, id, hv))
			return refund(x, buyer, id)
		}, ErrExchangeSettled},
	}
	idOf := make(map[string]uint64, len(cases))
	for i, tc := range cases {
		id := uint64(100 + i)
		idOf[tc.name] = id
		var texts []string
		for _, x := range machines {
			err := tc.run(x, id)
			if !errors.Is(err, chain.ErrReverted) || !errors.Is(err, tc.want) {
				t.Fatalf("%s on %s: %v, want a revert with %v", tc.name, x.name, err, tc.want)
			}
			texts = append(texts, err.Error()[strings.Index(err.Error(), "contracts: "):])
		}
		if texts[0] != texts[1] {
			t.Fatalf("%s: the contracts revert differently: %q vs %q", tc.name, texts[0], texts[1])
		}
	}

	// The one settled-k_c reader, on both contracts: an unknown exchange, one
	// still open, one settled.
	for _, x := range machines {
		if _, err := ReadSettledKc(c, x.name, 404); !errors.Is(err, ErrUnknownExchange) {
			t.Fatalf("%s: k_c of an unknown exchange: %v", x.name, err)
		}
		if _, err := ReadSettledKc(c, x.name, idOf["wrong seller"]); !errors.Is(err, ErrExchangeNotSettled) {
			t.Fatalf("%s: k_c of an open exchange: %v", x.name, err)
		}
		if got, err := ReadSettledKc(c, x.name, idOf["double settle"]); err != nil || !bytes.Equal(got, kc) {
			t.Fatalf("%s: settled k_c %x, %v; want %x", x.name, got, err, kc)
		}
	}
}

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
