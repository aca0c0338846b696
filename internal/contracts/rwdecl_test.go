package contracts

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// exchangeWorld deploys the full contract suite — NFT, auction, verifier,
// escrow — with n funded traders, and returns a valid settle calldata
// builder (toy π_k relation kc = c + hv, as in TestEscrowLifecycle).
func exchangeWorld(t *testing.T, n int) (*chain.Chain, []chain.Address, func(id uint64) []byte) {
	t.Helper()
	tau := fr.NewElement(0xdef)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		t.Fatal(err)
	}
	cs := plonk.NewConstraintSystem(3)
	minusOne := fr.NewFromInt64(-1)
	cs.MustAddGate(plonk.Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: 1, B: 2, C: 0})
	kcv, cv, hvv := fr.NewElement(30), fr.NewElement(10), fr.NewElement(20)
	pk, vk, err := plonk.Setup(cs, srs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonk.Prove(pk, []fr.Element{kcv, cv, hvv})
	if err != nil {
		t.Fatal(err)
	}

	c := chain.New()
	if _, err := c.Deploy(DataNFTName, &DataNFT{}, DataNFTCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(AuctionName, NewClockAuction(DataNFTName), AuctionCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("pik-verifier", NewVerifier(vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(EscrowName, NewEscrow("pik-verifier", 10), EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	traders := make([]chain.Address, n)
	for i := range traders {
		traders[i] = chain.AddressFromString(fmt.Sprintf("trader-%d", i))
		c.Faucet(traders[i], 10_000_000)
	}
	kcB, cB, hvB := kcv.Bytes(), cv.Bytes(), hvv.Bytes()
	settleArgs := func(id uint64) []byte {
		return EncodeArgs(U64(id), kcB[:], proof.Bytes(), kcB[:], cB[:], hvB[:])
	}
	return c, traders, settleArgs
}

// TestParallelBatchExchangeIdentity runs the paper's exchange workload —
// mints, transfers, approvals, escrow opens and settles, auction listings
// and bids — through SubmitBatch on one chain and the serial path on
// another, and requires identical receipts, blocks and state. This is the
// real-contract counterpart of the chain package's randomized property
// test, exercising the DeclareRW implementations above.
func TestParallelBatchExchangeIdentity(t *testing.T) {
	const nTraders = 6
	serialC, traders, settleArgs := exchangeWorld(t, nTraders)
	parC, _, _ := exchangeWorld(t, nTraders) // same τ/SRS: both chains accept the same proof bytes

	nonces := make(map[chain.Address]uint64)
	mkTx := func(from chain.Address, contract, method string, value uint64, args []byte) chain.Transaction {
		tx := chain.Transaction{
			From: from, Contract: contract, Method: method,
			Args: args, Value: value, Nonce: nonces[from],
		}
		nonces[from]++
		return tx
	}
	openArgs := func(id uint64, seller chain.Address) []byte {
		cv, hvv := fr.NewElement(10), fr.NewElement(20)
		cB, hvB := cv.Bytes(), hvv.Bytes()
		return EncodeArgs(U64(id), seller[:], hvB[:], cB[:])
	}

	runRound := func(round int, txs []chain.Transaction) {
		t.Helper()
		serialOut := serialC.SubmitBatch(txs, 1)
		parOut := parC.SubmitBatch(txs, 8)
		for i := range txs {
			s, p := serialOut[i], parOut[i]
			if (s.Err == nil) != (p.Err == nil) ||
				(s.Err != nil && s.Err.Error() != p.Err.Error()) {
				t.Fatalf("round %d tx %d: err %v, serial %v", round, i, p.Err, s.Err)
			}
			if s.Receipt == nil {
				continue
			}
			if p.Receipt.GasUsed != s.Receipt.GasUsed ||
				string(p.Receipt.Return) != string(s.Receipt.Return) ||
				len(p.Receipt.Logs) != len(s.Receipt.Logs) {
				t.Fatalf("round %d tx %d: receipt diverged (%s.%s)", round, i, txs[i].Contract, txs[i].Method)
			}
			if (s.Receipt.Err == nil) != (p.Receipt.Err == nil) ||
				(s.Receipt.Err != nil && s.Receipt.Err.Error() != p.Receipt.Err.Error()) {
				t.Fatalf("round %d tx %d: receipt err %v, serial %v", round, i, p.Receipt.Err, s.Receipt.Err)
			}
		}
		sb, pb := serialC.SealBlock(), parC.SealBlock()
		if sb.Hash() != pb.Hash() {
			t.Fatalf("round %d: sealed hash diverged (state roots %s vs %s)", round, pb.StateRoot, sb.StateRoot)
		}
		for _, a := range traders {
			if serialC.BalanceOf(a) != parC.BalanceOf(a) || serialC.NonceOf(a) != parC.NonceOf(a) {
				t.Fatalf("round %d: account %s diverged", round, a)
			}
		}
	}

	// Round 1: every trader mints (ids 1..n, all grouped on nextId);
	// half open escrows toward their neighbor; two list auctions.
	var txs []chain.Transaction
	for i, tr := range traders {
		txs = append(txs, mkTx(tr, DataNFTName, "mint", 0,
			EncodeArgs([]byte(fmt.Sprintf("uri-%d", i)), []byte(fmt.Sprintf("commit-%d", i)))))
	}
	for i := 0; i < nTraders/2; i++ {
		seller := traders[(i+1)%nTraders]
		txs = append(txs, mkTx(traders[i], EscrowName, "open", uint64(1000+i), openArgs(uint64(i+1), seller)))
	}
	txs = append(txs,
		mkTx(traders[4], AuctionName, "create", 0, EncodeArgs(U64(5), U64(5000), U64(1000), U64(100))),
		mkTx(traders[5], AuctionName, "create", 0, EncodeArgs(U64(6), U64(4000), U64(2000), U64(50))),
	)
	runRound(1, txs)

	// Round 2: cross transfers, operator approvals for the auction, a
	// settle per open escrow (serial-only path), one premature refund
	// (reverts), one auction cancel.
	txs = nil
	auctionOp := chain.ContractAddress(AuctionName)
	for i := 0; i < 2; i++ {
		txs = append(txs, mkTx(traders[i], DataNFTName, "transfer",
			0, EncodeArgs(U64(uint64(i+1)), traders[(i+3)%nTraders][:])))
	}
	txs = append(txs,
		mkTx(traders[4], DataNFTName, "approve", 0, EncodeArgs(U64(5), auctionOp[:])),
		mkTx(traders[5], DataNFTName, "approve", 0, EncodeArgs(U64(6), auctionOp[:])),
	)
	for i := 0; i < nTraders/2; i++ {
		seller := traders[(i+1)%nTraders]
		txs = append(txs, mkTx(seller, EscrowName, "settle", 0, settleArgs(uint64(i+1))))
	}
	txs = append(txs,
		mkTx(traders[0], EscrowName, "refund", 0, EncodeArgs(U64(1))), // settled → reverts
		mkTx(traders[5], AuctionName, "cancel", 0, EncodeArgs(U64(6))),
	)
	runRound(2, txs)

	// Round 3: a bid (serial-only, cross-contract transferFrom), burns,
	// and a transform mixing declared parent reads with dynamic mints.
	txs = nil
	txs = append(txs,
		mkTx(traders[2], AuctionName, "bid", 6000, EncodeArgs(U64(5))),
		mkTx(traders[3], DataNFTName, "burn", 0, EncodeArgs(U64(4))),
		mkTx(traders[2], DataNFTName, "duplicate", 0,
			EncodeArgs(U64(3), []byte("uri-dup"), []byte("commit-dup"))),
	)
	runRound(3, txs)

	// The parallel chain must actually have speculated and committed work.
	speculated, committed, _, _ := parC.ExecStats()
	if speculated == 0 || committed == 0 {
		t.Fatalf("engine never speculated (speculated %d, committed %d)", speculated, committed)
	}
}

// TestVerifierSerialOnlyPreservesPreverification pins the engine contract
// for verifier calls: they never speculate, and — run through the parallel
// engine or not — each is charged from the block's proof table, which does
// not wear out with use and does not survive the block.
func TestVerifierSerialOnlyPreservesPreverification(t *testing.T) {
	ps := testProofSystem()
	c := proofChain(t, ps.vk)
	c.SetExecWorkers(4)
	senders := make([]chain.Address, 4)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("v-sender-%d", i))
	}
	verifyArgs := VerifyArgs(ps.proof, ps.public)

	// Four transactions carrying the same calldata: four proof items in
	// one fold, one table entry.
	txs := make([]chain.Transaction, len(senders))
	for i, s := range senders {
		txs[i] = chain.Transaction{From: s, Contract: "verifier", Method: "verify", Args: verifyArgs, Nonce: 0}
	}
	res, err := c.ProduceBlock(txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Block.TxHashes) != 4 || res.Block.Fold != 4 {
		t.Fatalf("included %d, fold %d; want 4, 4", len(res.Block.TxHashes), res.Block.Fold)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil || o.Receipt.Err != nil {
			t.Fatalf("tx %d: %v %v", i, o.Err, o.Receipt.Err)
		}
		if want := intrinsicGas(verifyArgs) + BatchVerifiedGas(4, 1); o.Receipt.GasUsed != want {
			t.Fatalf("tx %d: gas %d, want folded %d", i, o.Receipt.GasUsed, want)
		}
	}
	if speculated, _, _, serial := c.ExecStats(); speculated != 0 || serial != 4 {
		t.Fatalf("verifier calls speculated %d times, ran serially %d; want 0 and 4", speculated, serial)
	}
	// The table went with the block: a fifth verify pays the full pairing
	// cost.
	extra := chain.Transaction{From: senders[0], Contract: "verifier", Method: "verify", Args: verifyArgs, Nonce: 1}
	r, err := c.Submit(extra)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil {
		t.Fatalf("unfolded verify failed: %v", r.Err)
	}
	if want := intrinsicGas(verifyArgs) + VerificationGas(1); r.GasUsed != want {
		t.Fatalf("unfolded verify gas %d, want standalone %d", r.GasUsed, want)
	}
}

// proofRelay forwards its calldata to the verifier after bumping a shared
// slot it never declared: it speculates (unlike every production contract
// that reaches a verifier), and any two of its calls conflict.
type proofRelay struct{}

func (proofRelay) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	n, err := ctx.Store.Get("calls")
	if err != nil {
		return nil, err
	}
	if err := ctx.Store.Set("calls", append(n, 1)); err != nil {
		return nil, err
	}
	return ctx.CallContract("verifier", "verify", args)
}

func (proofRelay) DeclareRW(chain.Address, string, []byte, uint64) (chain.RWDecl, bool) {
	return chain.RWDecl{}, true
}

// TestProofFoldSurvivesReexecution: a proof-carrying call the overlay
// engine speculated, discarded on a validation conflict and re-executed is
// charged exactly what the serial backend charges. With consume-once marks
// the discarded speculation had already spent the mark and the
// re-execution paid standalone gas — the reason verifier-reaching calls
// were made serial-only; the block's table is only read.
func TestProofFoldSurvivesReexecution(t *testing.T) {
	ps := testProofSystem()
	verifyArgs := VerifyArgs(ps.proof, ps.public)
	var txs []chain.Transaction
	// One direct verify puts the calldata in the block's table (width 1);
	// the relayed calls then find it there.
	txs = append(txs, chain.Transaction{From: chain.AddressFromString("direct"), Contract: "verifier", Method: "verify", Args: verifyArgs})
	for i := 0; i < 5; i++ {
		txs = append(txs, chain.Transaction{From: chain.AddressFromString(fmt.Sprintf("relay-%d", i)), Contract: "relay", Method: "go", Args: verifyArgs})
	}
	run := func(width int) (*chain.Chain, chain.Produced) {
		c := proofChain(t, ps.vk)
		if _, err := c.Deploy("relay", proofRelay{}, 100); err != nil {
			t.Fatal(err)
		}
		c.SetExecWorkers(width)
		res, err := c.ProduceBlock(txs)
		if err != nil || len(res.Block.TxHashes) != len(txs) || res.Block.Fold != 1 {
			t.Fatalf("width %d: included %d, fold %d, %v", width, len(res.Block.TxHashes), res.Block.Fold, err)
		}
		return c, res
	}
	serialChain, serial := run(1)
	parChain, par := run(4)
	if _, _, conflicts, _ := parChain.ExecStats(); conflicts == 0 {
		t.Fatal("no speculation was discarded: the test exercised nothing")
	}
	receipts := func(p chain.Produced) []*chain.Receipt {
		out := make([]*chain.Receipt, len(p.Outcomes))
		for i := range p.Outcomes {
			out[i] = p.Outcomes[i].Receipt
		}
		return out
	}
	sameReceipts(t, "overlay vs serial", receipts(par), receipts(serial))
	if serialChain.HeadHash() != parChain.HeadHash() {
		t.Fatal("heads differ")
	}
	// And what both charged is the folded schedule: against the same calls
	// executed eagerly, one by one with no table, each differs by exactly
	// standalone-for-amortised.
	eager := proofChain(t, ps.vk)
	if _, err := eager.Deploy("relay", proofRelay{}, 100); err != nil {
		t.Fatal(err)
	}
	for i := range txs {
		r, err := eager.Submit(txs[i])
		if err != nil || r.Err != nil {
			t.Fatalf("eager tx %d: %v %v", i, err, r)
		}
		got := par.Outcomes[i].Receipt
		if got.Err != nil {
			t.Fatalf("tx %d reverted: %v", i, got.Err)
		}
		if want := r.GasUsed - VerificationGas(1) + BatchVerifiedGas(1, 1); got.GasUsed != want {
			t.Fatalf("tx %d: folded gas %d, want eager %d − standalone + amortised = %d", i, got.GasUsed, r.GasUsed, want)
		}
	}
}
