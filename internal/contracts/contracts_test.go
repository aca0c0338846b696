package contracts

import (
	"bytes"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

func TestABIRoundTrip(t *testing.T) {
	parts := [][]byte{[]byte("hello"), nil, []byte{1, 2, 3}}
	enc := EncodeArgs(parts...)
	dec, err := DecodeArgs(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if !bytes.Equal(dec[i], parts[i]) {
			t.Fatalf("part %d mismatch", i)
		}
	}
	if _, err := DecodeArgs(enc, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := DecodeArgsVariadic([]byte{0, 0}); err == nil {
		t.Fatal("truncated prefix accepted")
	}
	if _, err := DecodeArgsVariadic([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	ids := []uint64{3, 1, 4, 1, 5}
	got, err := DecU64List(U64List(ids))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatal("id list mismatch")
		}
	}
	if _, err := DecU64List([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged id list accepted")
	}
	if _, err := DecU64([]byte{1}); err == nil {
		t.Fatal("short u64 accepted")
	}
}

// marketplace spins up a chain with the NFT and auction contracts deployed
// and two funded accounts.
func marketplace(t *testing.T) (*chain.Chain, chain.Address, chain.Address) {
	t.Helper()
	c := chain.New()
	if _, err := c.Deploy(DataNFTName, &DataNFT{}, DataNFTCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(AuctionName, NewClockAuction(DataNFTName), AuctionCodeSize); err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	c.Faucet(alice, 10_000_000)
	c.Faucet(bob, 10_000_000)
	return c, alice, bob
}

// call produces a block of one contract call and returns its receipt.
func call(t *testing.T, c *chain.Chain, from chain.Address, contract, method string, value uint64, args []byte) *chain.Receipt {
	t.Helper()
	o := c.ProduceBlock([]chain.Transaction{{
		From: from, Contract: contract, Method: method,
		Args: args, Value: value, Nonce: c.NonceOf(from),
	}}).Outcomes[0]
	if o.Err != nil {
		t.Fatalf("%s.%s: %v", contract, method, o.Err)
	}
	return o.Receipt
}

func mustSucceed(t *testing.T, r *chain.Receipt) *chain.Receipt {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("call reverted: %v", r.Err)
	}
	return r
}

func TestMintTransferBurnLifecycle(t *testing.T) {
	c, alice, bob := marketplace(t)
	uri := bytes.Repeat([]byte{0xaa}, 32)
	commit := bytes.Repeat([]byte{0xbb}, 32)

	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0, EncodeArgs(uri, commit)))
	id, err := DecU64(r.Return)
	if err != nil || id != 1 {
		t.Fatalf("minted id %d, err %v", id, err)
	}
	tok, err := ReadToken(c, id)
	if err != nil {
		t.Fatal(err)
	}
	record := RecordDigest(KindMint, uri, commit, nil)
	if tok.Owner != alice || tok.Kind != KindMint || tok.Record != record {
		t.Fatalf("token record %+v", tok)
	}
	// Storage holds the digest; the mint's Transfer event carries the record.
	if ev := r.Logs[0]; ev.Name != "Transfer" || !bytes.Equal(ev.Data, EncodeArgs(U64(id), nil, alice[:], uri, commit)) {
		t.Fatalf("mint event %+v", ev)
	}

	// Transfer to bob.
	mustSucceed(t, call(t, c, alice, DataNFTName, "transfer", 0, EncodeArgs(U64(id), bob[:])))
	tok, err = ReadToken(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != bob {
		t.Fatal("transfer did not change owner")
	}

	// Alice can no longer transfer or burn.
	r = call(t, c, alice, DataNFTName, "transfer", 0, EncodeArgs(U64(id), alice[:]))
	if r.Err == nil {
		t.Fatal("non-owner transfer succeeded")
	}
	r = call(t, c, alice, DataNFTName, "burn", 0, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("non-owner burn succeeded")
	}

	// Bob burns; the token stays readable but marked burned.
	mustSucceed(t, call(t, c, bob, DataNFTName, "burn", 0, EncodeArgs(U64(id))))
	tok, err = ReadToken(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.Burned {
		t.Fatal("burned token not marked")
	}
	if tok.Record != record {
		t.Fatal("burn dropped the record digest: the token's lineage would no longer verify")
	}
	// Burned tokens cannot move.
	r = call(t, c, bob, DataNFTName, "transfer", 0, EncodeArgs(U64(id), alice[:]))
	if r.Err == nil {
		t.Fatal("burned token transferred")
	}
}

func TestTransformationsAndTrace(t *testing.T) {
	c, alice, bob := marketplace(t)
	mkToken := func(tag byte) uint64 {
		r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
			EncodeArgs(bytes.Repeat([]byte{tag}, 32), bytes.Repeat([]byte{tag ^ 0xff}, 32))))
		id, _ := DecU64(r.Return)
		return id
	}
	a := mkToken(1)
	b := mkToken(2)

	// Aggregation of a and b.
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "aggregate", 0,
		EncodeArgs(U64List([]uint64{a, b}), bytes.Repeat([]byte{3}, 32), bytes.Repeat([]byte{4}, 32))))
	agg, _ := DecU64(r.Return)

	// Partition of the aggregate into two children.
	r = mustSucceed(t, call(t, c, alice, DataNFTName, "partition", 0,
		EncodeArgs(U64(agg),
			bytes.Repeat([]byte{5}, 32), bytes.Repeat([]byte{6}, 32),
			bytes.Repeat([]byte{7}, 32), bytes.Repeat([]byte{8}, 32))))
	kids, err := DecU64List(r.Return)
	if err != nil || len(kids) != 2 {
		t.Fatalf("partition returned %v, %v", kids, err)
	}

	// Duplicate one child, process the other.
	r = mustSucceed(t, call(t, c, alice, DataNFTName, "duplicate", 0,
		EncodeArgs(U64(kids[0]), bytes.Repeat([]byte{9}, 32), bytes.Repeat([]byte{10}, 32))))
	dup, _ := DecU64(r.Return)
	r = mustSucceed(t, call(t, c, alice, DataNFTName, "process", 0,
		EncodeArgs(U64List([]uint64{kids[1]}), bytes.Repeat([]byte{11}, 32), bytes.Repeat([]byte{12}, 32))))
	proc, _ := DecU64(r.Return)
	if ev := r.Logs[len(r.Logs)-1]; ev.Name != "Transform" ||
		!bytes.Equal(ev.Data, EncodeArgs(U64(proc), []byte{byte(KindProcessing)}, U64List([]uint64{kids[1]}))) {
		t.Fatalf("process event %+v", ev)
	}

	// The lineage proc → kids[1] → agg → {a, b}: each token's storage binds
	// exactly its kind, URI, commitment and parents.
	rep := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	for _, w := range []struct {
		id          uint64
		kind        TransformKind
		uri, commit byte
		prev        []uint64
	}{
		{proc, KindProcessing, 11, 12, []uint64{kids[1]}},
		{kids[1], KindPartition, 7, 8, []uint64{agg}},
		{agg, KindAggregation, 3, 4, []uint64{a, b}},
		{a, KindMint, 1, 0xfe, nil},
		{b, KindMint, 2, 0xfd, nil},
		{dup, KindDuplication, 9, 10, []uint64{kids[0]}},
	} {
		tok, err := ReadToken(c, w.id)
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != w.kind || tok.Record != RecordDigest(w.kind, rep(w.uri), rep(w.commit), w.prev) {
			t.Fatalf("token %d: %+v, want a %v over parents %v", w.id, tok, w.kind, w.prev)
		}
	}

	// Transformations of tokens you do not own must fail.
	r = call(t, c, bob, DataNFTName, "duplicate", 0,
		EncodeArgs(U64(a), bytes.Repeat([]byte{13}, 32), bytes.Repeat([]byte{14}, 32)))
	if r.Err == nil {
		t.Fatal("non-owner transformation succeeded")
	}
	// Aggregation with fewer than two parents fails.
	r = call(t, c, alice, DataNFTName, "aggregate", 0,
		EncodeArgs(U64List([]uint64{a}), bytes.Repeat([]byte{15}, 32), bytes.Repeat([]byte{16}, 32)))
	if r.Err == nil {
		t.Fatal("single-parent aggregation succeeded")
	}
}

func TestClockAuction(t *testing.T) {
	c, alice, bob := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)

	// Approve the auction as operator, then list.
	auctionAddr := chain.ContractAddress(AuctionName)
	mustSucceed(t, call(t, c, alice, DataNFTName, "approve", 0, EncodeArgs(U64(id), auctionAddr[:])))
	mustSucceed(t, call(t, c, alice, AuctionName, "create", 0,
		EncodeArgs(U64(id), U64(1000), U64(100), U64(10))))

	// Listing price declines over blocks.
	r = mustSucceed(t, call(t, c, bob, AuctionName, "price", 0, EncodeArgs(U64(id))))
	p0, _ := DecU64(r.Return)
	c.ProduceBlock(nil)
	c.ProduceBlock(nil)
	r = mustSucceed(t, call(t, c, bob, AuctionName, "price", 0, EncodeArgs(U64(id))))
	p1, _ := DecU64(r.Return)
	if p1 >= p0 {
		t.Fatalf("price did not decay: %d → %d", p0, p1)
	}

	// Low bid rejected.
	r = call(t, c, bob, AuctionName, "bid", 10, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("low bid accepted")
	}

	// Sufficient bid: token moves, seller is paid, excess refunded.
	aliceBefore := c.BalanceOf(alice)
	bobBefore := c.BalanceOf(bob)
	mustSucceed(t, call(t, c, bob, AuctionName, "bid", 2000, EncodeArgs(U64(id))))
	tok, err := ReadToken(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != bob {
		t.Fatal("auction did not transfer token")
	}
	paid := bobBefore - c.BalanceOf(bob)
	earned := c.BalanceOf(alice) - aliceBefore
	if paid != earned || paid == 0 || paid > 1000 {
		t.Fatalf("paid %d, earned %d", paid, earned)
	}

	// Listing is gone.
	r = call(t, c, bob, AuctionName, "price", 0, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("listing survived sale")
	}
}

func TestAuctionCancel(t *testing.T) {
	c, alice, bob := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)
	auctionAddr := chain.ContractAddress(AuctionName)
	mustSucceed(t, call(t, c, alice, DataNFTName, "approve", 0, EncodeArgs(U64(id), auctionAddr[:])))
	mustSucceed(t, call(t, c, alice, AuctionName, "create", 0,
		EncodeArgs(U64(id), U64(500), U64(500), U64(5))))
	// Only the lister can cancel.
	r = call(t, c, bob, AuctionName, "cancel", 0, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("stranger cancelled listing")
	}
	mustSucceed(t, call(t, c, alice, AuctionName, "cancel", 0, EncodeArgs(U64(id))))
	r = call(t, c, bob, AuctionName, "bid", 500, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("bid on cancelled listing succeeded")
	}
}

// testProofSystem builds a tiny circuit (x·y = pub) and returns everything
// needed to exercise the on-chain verifier and escrow.
var testProofSystem = sync.OnceValue(func() (out struct {
	vk     *plonk.VerifyingKey
	proof  *plonk.Proof
	public []fr.Element
}) {
	tau := fr.NewElement(0xabc)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		panic(err)
	}
	cs := plonk.NewConstraintSystem(1)
	x := cs.NewVariable()
	y := cs.NewVariable()
	minusOne := fr.NewFromInt64(-1)
	cs.MustAddGate(plonk.Gate{QM: fr.One(), QO: minusOne, A: x, B: y, C: 0})
	witness := []fr.Element{fr.NewElement(391), fr.NewElement(17), fr.NewElement(23)}
	pk, vk, err := plonk.Setup(cs, srs)
	if err != nil {
		panic(err)
	}
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		panic(err)
	}
	out.vk = vk
	out.proof = proof
	out.public = witness[:1]
	return out
})

func TestOnChainVerifier(t *testing.T) {
	ps := testProofSystem()
	c := chain.New()
	gas, err := c.Deploy("verifier", NewVerifier(ps.vk), VerifierCodeSize)
	if err != nil {
		t.Fatal(err)
	}
	// Table II: verifier deployment ≈ 1,644,969.
	if gas < 1_500_000 || gas > 1_800_000 {
		t.Fatalf("verifier deployment gas %d out of Table II range", gas)
	}
	alice := chain.AddressFromString("alice")

	r := call(t, c, alice, "verifier", "verify", 0, VerifyArgs(ps.proof, ps.public))
	mustSucceed(t, r)
	if len(r.Return) != 1 || r.Return[0] != 1 {
		t.Fatal("verifier did not return success")
	}
	// Verification gas is the precompile schedule, independent of circuit.
	if r.GasUsed < chain.GasPairingBase {
		t.Fatalf("verification gas %d too low", r.GasUsed)
	}

	// Wrong public input must revert.
	bad := []fr.Element{fr.NewElement(392)}
	r = call(t, c, alice, "verifier", "verify", 0, VerifyArgs(ps.proof, bad))
	if r.Err == nil {
		t.Fatal("wrong public input verified on-chain")
	}
	// Corrupted proof bytes must revert.
	blob := VerifyArgs(ps.proof, ps.public)
	blob[10] ^= 0xff
	r = call(t, c, alice, "verifier", "verify", 0, blob)
	if r.Err == nil {
		t.Fatal("corrupted proof verified on-chain")
	}
}

// escrowEnv deploys escrow + a verifier for the tiny test circuit. The
// "π_k" here is the test circuit's proof; the real key-negotiation circuit
// is exercised in internal/core.
func escrowEnv(t *testing.T) (*chain.Chain, chain.Address, chain.Address, [][]byte) {
	t.Helper()
	ps := testProofSystem()
	c := chain.New()
	if _, err := c.Deploy("pik-verifier", NewVerifier(ps.vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(EscrowName, NewEscrow("pik-verifier", 10), EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	buyer := chain.AddressFromString("buyer")
	seller := chain.AddressFromString("seller")
	c.Faucet(buyer, 1_000_000)
	c.Faucet(seller, 1_000_000)

	// For escrow mechanics tests, treat the single public input as kc and
	// use fixed c/hv values bound at open time. We pack the verify args as
	// (proof, kc, c, hv) — but the tiny circuit has one public input, so
	// bind c and hv to kc's value too via a 3-public circuit below in core
	// tests; here they are opaque byte strings compared by the contract.
	pub := ps.public[0].Bytes()
	parts := [][]byte{ps.proof.Bytes(), pub[:], pub[:], pub[:]}
	return c, buyer, seller, parts
}

// TestEscrowLifecycle follows the escrow's payment, native value, through
// an open and a settlement; TestExchangeStateMachine covers the refusals.
func TestEscrowLifecycle(t *testing.T) {
	ef := escrowProofSystem()
	c := chain.New()
	if _, err := c.Deploy("pik-verifier", NewVerifier(ef.vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(EscrowName, NewEscrow("pik-verifier", 10), EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	buyer := chain.AddressFromString("buyer")
	seller := chain.AddressFromString("seller")
	c.Faucet(buyer, 1_000_000)
	c.Faucet(seller, 1_000_000)
	kcB, cB, hvB := ef.witness[0].Bytes(), ef.witness[1].Bytes(), ef.witness[2].Bytes()

	// Buyer opens with payment locked.
	mustSucceed(t, call(t, c, buyer, EscrowName, "open", 5000,
		EncodeArgs(U64(1), seller[:], hvB[:], cB[:])))
	if got := c.BalanceOf(buyer); got != 995_000 {
		t.Fatalf("buyer balance %d", got)
	}

	// Seller settles with a valid proof: payment moves, kc published.
	sellerBefore := c.BalanceOf(seller)
	mustSucceed(t, call(t, c, seller, EscrowName, "settle", 0,
		EncodeArgs(U64(1), kcB[:], ef.proofs[0].Bytes(), kcB[:], cB[:], hvB[:])))
	if got := c.BalanceOf(seller) - sellerBefore; got != 5000 {
		t.Fatalf("seller earned %d, want 5000", got)
	}
	gotKc, err := ReadSettledKc(c, EscrowName, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotKc, kcB[:]) {
		t.Fatal("published kc mismatch")
	}
}

// TestEscrowRefund: after the deadline the buyer gets the locked value back.
func TestEscrowRefund(t *testing.T) {
	c, buyer, seller, parts := escrowEnv(t)
	hv := parts[3]
	cc := parts[2]
	mustSucceed(t, call(t, c, buyer, EscrowName, "open", 777, EncodeArgs(U64(9), seller[:], hv, cc)))
	for i := 0; i < 12; i++ {
		c.ProduceBlock(nil)
	}
	before := c.BalanceOf(buyer)
	mustSucceed(t, call(t, c, buyer, EscrowName, "refund", 0, EncodeArgs(U64(9))))
	if got := c.BalanceOf(buyer) - before; got != 777 {
		t.Fatalf("refund %d, want 777", got)
	}
}

func TestTableIIGasShape(t *testing.T) {
	// The headline Table II comparison: deployment ~1M, verifier ~1.6M,
	// minting ~100k, transfer cheapest, transformations under minting.
	c, alice, bob := marketplace(t)
	uri := bytes.Repeat([]byte{0xaa}, 32)
	cm := bytes.Repeat([]byte{0xbb}, 32)

	mint1 := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0, EncodeArgs(uri, cm))).GasUsed
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0, EncodeArgs(uri, cm)))
	id2, _ := DecU64(r.Return)
	// Warm up bob's balance slot so the transfer measurement matches the
	// steady-state (existing-holder) case the paper reports.
	r = mustSucceed(t, call(t, c, bob, DataNFTName, "mint", 0, EncodeArgs(uri, cm)))
	transfer := mustSucceed(t, call(t, c, alice, DataNFTName, "transfer", 0, EncodeArgs(U64(id2), bob[:]))).GasUsed
	burn := mustSucceed(t, call(t, c, bob, DataNFTName, "burn", 0, EncodeArgs(U64(id2)))).GasUsed

	if transfer >= mint1 || burn >= mint1 {
		t.Fatalf("transfer (%d) and burn (%d) should be cheaper than mint (%d)", transfer, burn, mint1)
	}
	// A mint stores two words (owner‖kind and the record digest) and logs the
	// record itself: within 5 % of the paper's figure.
	if mint1 < 106048*95/100 || mint1 > 106048*105/100 {
		t.Fatalf("mint gas %d, want within 5 %% of the paper's 106048", mint1)
	}
	// Magnitudes: within a factor ~2 of Table II (the exact split between
	// slots differs from the authors' Solidity layout; EXPERIMENTS.md
	// records the side-by-side numbers).
	within := func(got, want uint64) bool {
		lo, hi := want/2, want*2
		return got >= lo && got <= hi
	}
	if !within(mint1, 106048) {
		t.Fatalf("mint gas %d vs paper 106048", mint1)
	}
	if !within(transfer, 36574) {
		t.Fatalf("transfer gas %d vs paper 36574", transfer)
	}
	if !within(burn, 50084) {
		t.Fatalf("burn gas %d vs paper 50084", burn)
	}
}

func TestAuctionPriceFloorAfterExpiry(t *testing.T) {
	c, alice, bob := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)
	auctionAddr := chain.ContractAddress(AuctionName)
	mustSucceed(t, call(t, c, alice, DataNFTName, "approve", 0, EncodeArgs(U64(id), auctionAddr[:])))
	mustSucceed(t, call(t, c, alice, AuctionName, "create", 0,
		EncodeArgs(U64(id), U64(1000), U64(100), U64(3))))
	for i := 0; i < 10; i++ {
		c.ProduceBlock(nil)
	}
	r = mustSucceed(t, call(t, c, bob, AuctionName, "price", 0, EncodeArgs(U64(id))))
	price, _ := DecU64(r.Return)
	if price != 100 {
		t.Fatalf("price after expiry %d, want end price 100", price)
	}
	// Bid at the floor still works.
	mustSucceed(t, call(t, c, bob, AuctionName, "bid", 100, EncodeArgs(U64(id))))
}

func TestAuctionCreateValidation(t *testing.T) {
	c, alice, _ := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)
	// End price above start price.
	r = call(t, c, alice, AuctionName, "create", 0, EncodeArgs(U64(id), U64(100), U64(200), U64(5)))
	if r.Err == nil {
		t.Fatal("inverted price range accepted")
	}
	// Zero duration.
	r = call(t, c, alice, AuctionName, "create", 0, EncodeArgs(U64(id), U64(200), U64(100), U64(0)))
	if r.Err == nil {
		t.Fatal("zero duration accepted")
	}
	// Listing twice.
	mustSucceed(t, call(t, c, alice, AuctionName, "create", 0, EncodeArgs(U64(id), U64(200), U64(100), U64(5))))
	r = call(t, c, alice, AuctionName, "create", 0, EncodeArgs(U64(id), U64(200), U64(100), U64(5)))
	if r.Err == nil {
		t.Fatal("double listing accepted")
	}
	// Unknown method.
	r = call(t, c, alice, AuctionName, "nope", 0, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("unknown auction method accepted")
	}
}

func TestAuctionBidWithoutApproval(t *testing.T) {
	c, alice, bob := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)
	// Listed, but the auction was never approved as operator: the bid must
	// revert inside transferFrom, refunding the bidder.
	mustSucceed(t, call(t, c, alice, AuctionName, "create", 0,
		EncodeArgs(U64(id), U64(100), U64(100), U64(5))))
	before := c.BalanceOf(bob)
	r = call(t, c, bob, AuctionName, "bid", 100, EncodeArgs(U64(id)))
	if r.Err == nil {
		t.Fatal("bid succeeded without operator approval")
	}
	if c.BalanceOf(bob) != before {
		t.Fatal("failed bid not refunded")
	}
	// Token still belongs to alice.
	tok, err := ReadToken(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != alice {
		t.Fatal("token moved despite revert")
	}
}

func TestTransferFromRequiresApproval(t *testing.T) {
	c, alice, bob := marketplace(t)
	r := mustSucceed(t, call(t, c, alice, DataNFTName, "mint", 0,
		EncodeArgs(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))))
	id, _ := DecU64(r.Return)
	// Bob (not an operator) cannot transferFrom.
	r = call(t, c, bob, DataNFTName, "transferFrom", 0, EncodeArgs(U64(id), alice[:], bob[:]))
	if r.Err == nil {
		t.Fatal("unapproved transferFrom succeeded")
	}
	// Approval is single-use: approve bob, transfer, then a second
	// transferFrom fails.
	mustSucceed(t, call(t, c, alice, DataNFTName, "approve", 0, EncodeArgs(U64(id), bob[:])))
	mustSucceed(t, call(t, c, bob, DataNFTName, "transferFrom", 0, EncodeArgs(U64(id), alice[:], bob[:])))
	r = call(t, c, bob, DataNFTName, "transferFrom", 0, EncodeArgs(U64(id), bob[:], alice[:]))
	if r.Err == nil {
		t.Fatal("approval survived a transfer")
	}
	// Approving a token you don't own fails.
	r = call(t, c, alice, DataNFTName, "approve", 0, EncodeArgs(U64(id), alice[:]))
	if r.Err == nil {
		t.Fatal("non-owner approval succeeded")
	}
}

func TestDataNFTArgumentValidation(t *testing.T) {
	c, alice, _ := marketplace(t)
	cases := []struct {
		method string
		args   []byte
	}{
		{"mint", EncodeArgs([]byte{1})},                             // wrong arity
		{"transfer", EncodeArgs(U64(1), []byte{1, 2})},              // bad address
		{"transfer", EncodeArgs([]byte{9}, make([]byte, 20))},       // bad id
		{"ownerOf", EncodeArgs(U64(404))},                           // unknown token
		{"burn", EncodeArgs(U64(404))},                              // unknown token
		{"duplicate", EncodeArgs(U64(404), []byte{1}, []byte{2})},   // unknown parent
		{"partition", EncodeArgs(U64(1), []byte{1})},                // bad layout
		{"process", EncodeArgs(U64List(nil), []byte{1}, []byte{2})}, // no parents
		{"nope", nil}, // unknown method
	}
	for _, tc := range cases {
		r := call(t, c, alice, DataNFTName, tc.method, 0, tc.args)
		if r.Err == nil {
			t.Fatalf("%s with bad args succeeded", tc.method)
		}
	}
}

func TestVerifierUnknownMethodAndArity(t *testing.T) {
	ps := testProofSystem()
	c := chain.New()
	if _, err := c.Deploy("verifier", NewVerifier(ps.vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	// Calldata that verify accepts is refused under any other method.
	valid := VerifyArgs(ps.proof, ps.public)
	r := call(t, c, alice, "verifier", "nope", 0, valid)
	if r.Err == nil {
		t.Fatal("unknown verifier method accepted")
	}
	mustSucceed(t, call(t, c, alice, "verifier", "verify", 0, valid))
	r = call(t, c, alice, "verifier", "verify", 0, EncodeArgs())
	if r.Err == nil {
		t.Fatal("verify without proof accepted")
	}
	// Wrong public-input arity (vk expects 1).
	pub := ps.public[0].Bytes()
	r = call(t, c, alice, "verifier", "verify", 0, EncodeArgs(ps.proof.Bytes(), pub[:], pub[:]))
	if r.Err == nil {
		t.Fatal("wrong arity verified")
	}
	// Non-canonical public input.
	bad := bytes.Repeat([]byte{0xff}, 32)
	r = call(t, c, alice, "verifier", "verify", 0, EncodeArgs(ps.proof.Bytes(), bad))
	if r.Err == nil {
		t.Fatal("non-canonical public input accepted")
	}
}

func TestEscrowArgumentValidation(t *testing.T) {
	c, buyer, _, _ := escrowEnv(t)
	r := call(t, c, buyer, EscrowName, "nope", 0, nil)
	if r.Err == nil {
		t.Fatal("unknown escrow method accepted")
	}
}

func TestTransformKindString(t *testing.T) {
	kinds := map[TransformKind]string{
		KindMint: "mint", KindAggregation: "aggregation", KindPartition: "partition",
		KindDuplication: "duplication", KindProcessing: "processing", TransformKind(99): "unknown(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestVerificationGasFormula(t *testing.T) {
	g0 := VerificationGas(0)
	g10 := VerificationGas(10)
	if g0 < chain.GasPairingBase+2*chain.GasPairingPerPair {
		t.Fatal("verification gas below pairing floor")
	}
	if g10-g0 != 10*chain.GasEcMul {
		t.Fatalf("per-input gas %d, want %d", g10-g0, 10*chain.GasEcMul)
	}
}
