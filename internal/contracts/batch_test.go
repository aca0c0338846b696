package contracts

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// batchProofSystem is like testProofSystem but keeps the proving key so
// tests can mint many distinct proofs of the same statement.
var batchProofSystem = sync.OnceValue(func() (out struct {
	pk      *plonk.ProvingKey
	vk      *plonk.VerifyingKey
	witness []fr.Element
}) {
	tau := fr.NewElement(0xbeef)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		panic(err)
	}
	cs := plonk.NewConstraintSystem(1)
	x := cs.NewVariable()
	y := cs.NewVariable()
	minusOne := fr.NewFromInt64(-1)
	cs.MustAddGate(plonk.Gate{QM: fr.One(), QO: minusOne, A: x, B: y, C: 0})
	out.witness = []fr.Element{fr.NewElement(391), fr.NewElement(17), fr.NewElement(23)}
	out.pk, out.vk, err = plonk.Setup(cs, srs)
	if err != nil {
		panic(err)
	}
	return out
})

func mintProofs(t testing.TB, n int) ([]*plonk.Proof, [][]fr.Element) {
	t.Helper()
	ps := batchProofSystem()
	proofs := make([]*plonk.Proof, n)
	publics := make([][]fr.Element, n)
	for i := range proofs {
		p, err := plonk.Prove(ps.pk, ps.witness)
		if err != nil {
			t.Fatal(err)
		}
		proofs[i] = p
		publics[i] = ps.witness[:1]
	}
	return proofs, publics
}

// breakProof swaps the ζ-opening commitment for an unrelated point: the
// proof still deserialises and passes the transcript/quotient checks, but
// its pairing check fails — the exact shape batch folding must catch.
func breakProof(p *plonk.Proof) *plonk.Proof {
	bad := *p
	s := fr.NewElement(0xbad)
	g := bn254.G1Generator()
	bad.WZeta = bn254.G1ScalarMul(&g, &s)
	return &bad
}

// TestBatchVerifiedGasSchedule pins the amortised schedule: the pairing
// term is split across the batch and vanishes as n grows, while the
// per-proof folding work stays.
func TestBatchVerifiedGasSchedule(t *testing.T) {
	if BatchVerifiedGas(1, 1) <= BatchVerifiedGas(16, 1) {
		// n=1 carries the whole pairing; n=16 a sixteenth of it.
		t.Fatal("amortised gas not decreasing in batch size")
	}
	floor := uint64(18+1+2)*chain.GasEcMul + 24*chain.GasEcAdd
	if g := BatchVerifiedGas(1_000_000, 1); g < floor || g > floor+1 {
		t.Fatalf("asymptotic amortised gas %d, want folding floor %d", g, floor)
	}
	if BatchVerifiedGas(0, 1) != BatchVerifiedGas(1, 1) {
		t.Fatal("batch size below 1 must clamp")
	}
}

// TestBatchVerifiedGasWidthOne: a proof folded alone has no random linear
// combination to take, so it is charged exactly the standalone
// verification — for every public-input count a verifier here sees — while
// folds of two and more keep the amortised schedule to the digit.
func TestBatchVerifiedGasWidthOne(t *testing.T) {
	for l := 0; l <= 8; l++ {
		if got, want := BatchVerifiedGas(1, l), VerificationGas(l); got != want {
			t.Fatalf("BatchVerifiedGas(1, %d) = %d, want VerificationGas(%d) = %d", l, got, l, want)
		}
	}
	for _, pin := range []struct {
		n, l int
		gas  uint64
	}{
		{2, 3, 198_100}, // two π_k settlements in one block
		{3, 9, 215_266},
		{4, 1, 157_850},
		{64, 3, 143_365},
	} {
		if got := BatchVerifiedGas(pin.n, pin.l); got != pin.gas {
			t.Fatalf("BatchVerifiedGas(%d, %d) = %d, pinned %d", pin.n, pin.l, got, pin.gas)
		}
	}
}

// proofChain is a chain with one verifier contract deployed and a block
// checker covering it installed — the minimal genesis that folds proofs.
func proofChain(t testing.TB, vk *plonk.VerifyingKey) *chain.Chain {
	t.Helper()
	c := chain.New()
	v := NewVerifier(vk)
	if _, err := c.Deploy("verifier", v, VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	bc := NewBlockProofChecker()
	bc.Add("verifier", v)
	c.SetBlockVerifier(bc)
	return c
}

// sameReceipts fails unless two receipt lists agree field for field.
func sameReceipts(t testing.TB, what string, got, want []*chain.Receipt) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d receipts, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TxHash != w.TxHash || g.GasUsed != w.GasUsed || string(g.Return) != string(w.Return) ||
			len(g.Logs) != len(w.Logs) || (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Fatalf("%s: receipt %d differs: %+v, want %+v", what, i, g, w)
		}
	}
}

func intrinsicGas(args []byte) uint64 {
	return uint64(chain.GasTxBase) + uint64(len(args))*chain.GasCalldataByte
}

// TestBlockProofCheckerMarksAndEvicts drives the producer flow over a mix
// of valid proofs, an invalid proof, and a transaction that cannot execute:
// the block holds exactly the valid ones, its header records their fold,
// they are charged the amortised schedule for that width — and a follower
// re-running the check over the body arrives at the same receipts, while
// the table is gone once the block is sealed.
func TestBlockProofCheckerMarksAndEvicts(t *testing.T) {
	ps := batchProofSystem()
	proofs, publics := mintProofs(t, 3)
	c := proofChain(t, ps.vk)
	sender := func(i int) chain.Address { return chain.AddressFromString(fmt.Sprintf("sender-%d", i)) }

	txs := []chain.Transaction{
		{From: sender(0), Contract: "verifier", Method: "verify", Args: VerifyArgs(proofs[0], publics[0])},
		{From: sender(1), Contract: "other", Method: "noop"},
		{From: sender(2), Contract: "verifier", Method: "verify", Args: VerifyArgs(breakProof(proofs[1]), publics[1])},
		{From: sender(3), Contract: "verifier", Method: "verify", Args: VerifyArgs(proofs[2], publics[2])},
	}
	res, err := c.ProduceBlock(txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Block.TxHashes) != 2 || res.ProofsVerified != 2 || res.ProofsEvicted != 1 || res.Block.Fold != 2 {
		t.Fatalf("included %d, verified %d, evicted %d, fold %d; want 2, 2, 1, 2",
			len(res.Block.TxHashes), res.ProofsVerified, res.ProofsEvicted, res.Block.Fold)
	}
	if !errors.Is(res.Outcomes[2].Err, ErrProofRejected) {
		t.Fatalf("invalid proof not evicted: %v", res.Outcomes[2].Err)
	}
	if !errors.Is(res.Outcomes[1].Err, chain.ErrUnknownContract) {
		t.Fatalf("unexecutable transaction: %v", res.Outcomes[1].Err)
	}
	for _, i := range []int{1, 2} {
		if got := c.NonceOf(sender(i)); got != 0 {
			t.Fatalf("sender %d left out of the block but its nonce is %d", i, got)
		}
	}
	// Included transactions pay the amortised cost for the block's fold
	// width (receipts also carry the intrinsic base + calldata gas).
	var sealed []*chain.Receipt
	for _, i := range []int{0, 3} {
		r := res.Outcomes[i].Receipt
		if r == nil || r.Err != nil {
			t.Fatalf("tx %d: %+v", i, res.Outcomes[i])
		}
		if want := intrinsicGas(txs[i].Args) + BatchVerifiedGas(2, 1); r.GasUsed != want {
			t.Fatalf("tx %d: folded gas %d, want %d", i, r.GasUsed, want)
		}
		sealed = append(sealed, r)
	}

	// A follower applies the block through the same routine and charges
	// the same; one that folds nothing refuses the header's claim.
	body, _ := c.BlockBody(res.Block.Number)
	imported, err := proofChain(t, ps.vk).ImportBlock(res.Block, body)
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	sameReceipts(t, "follower", imported, sealed)
	bare := chain.New()
	if _, err := bare.Deploy("verifier", NewVerifier(ps.vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.ImportBlock(res.Block, body); !errors.Is(err, chain.ErrBadBody) {
		t.Fatalf("chain with no block verifier accepted fold %d: %v", res.Block.Fold, err)
	}

	// The table belonged to that block: the same calldata submitted
	// eagerly afterwards is verified alone, at the standalone price.
	r := mustSucceed(t, call(t, c, sender(0), "verifier", "verify", 0, txs[0].Args))
	if want := intrinsicGas(txs[0].Args) + VerificationGas(1); r.GasUsed != want {
		t.Fatalf("eager replay gas %d, want standalone %d", r.GasUsed, want)
	}
	if b := c.SealBlock(); b.Fold != 0 {
		t.Fatalf("eagerly executed block sealed with fold %d", b.Fold)
	}
}

// escrowFixture deploys a 3-public verifier (the escrow's (kc, c, hv)
// statement) and an escrow over it, opens n exchanges and returns the
// chain with each exchange's settle transaction. The genesis is
// deterministic, so two fixtures are replicas of each other.
func escrowFixture(t *testing.T, n int) (*chain.Chain, []chain.Transaction) {
	t.Helper()
	ef := escrowProofSystem()
	c := chain.New()
	verifier := NewVerifier(ef.vk)
	escrow := NewEscrow("pik-verifier", 10)
	if _, err := c.Deploy("pik-verifier", verifier, VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(EscrowName, escrow, EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	bc := NewBlockProofChecker()
	bc.Add("pik-verifier", verifier)
	bc.Add(EscrowName, escrow)
	c.SetBlockVerifier(bc)

	buyer := chain.AddressFromString("buyer")
	c.Faucet(buyer, 1_000_000)
	kcB, cB, hvB := ef.witness[0].Bytes(), ef.witness[1].Bytes(), ef.witness[2].Bytes()
	settles := make([]chain.Transaction, n)
	for i := range settles {
		id := uint64(i + 1)
		seller := chain.AddressFromString(fmt.Sprintf("seller-%d", i))
		mustSucceed(t, call(t, c, buyer, EscrowName, "open", 5000,
			EncodeArgs(U64(id), seller[:], hvB[:], cB[:])))
		settles[i] = chain.Transaction{
			From: seller, Contract: EscrowName, Method: "settle",
			Args: EncodeArgs(U64(id), kcB[:], ef.proofs[i].Bytes(), kcB[:], cB[:], hvB[:]),
		}
	}
	c.SealBlock()
	return c, settles
}

// escrowProofSystem proves the (kc, c, hv) toy statement a few times over,
// once per process: every escrowFixture shares the proofs, so replicas see
// byte-identical settle calldata.
var escrowProofSystem = sync.OnceValue(func() (out struct {
	vk      *plonk.VerifyingKey
	witness []fr.Element
	proofs  []*plonk.Proof
}) {
	tau := fr.NewElement(0xfade)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		panic(err)
	}
	cs := plonk.NewConstraintSystem(3)
	minusOne := fr.NewFromInt64(-1)
	cs.MustAddGate(plonk.Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: 1, B: 2, C: 0})
	out.witness = []fr.Element{fr.NewElement(30), fr.NewElement(10), fr.NewElement(20)}
	pk, vk, err := plonk.Setup(cs, srs)
	if err != nil {
		panic(err)
	}
	out.vk = vk
	for i := 0; i < 4; i++ {
		proof, err := plonk.Prove(pk, out.witness)
		if err != nil {
			panic(err)
		}
		out.proofs = append(out.proofs, proof)
	}
	return out
})

// TestBlockProofCheckerEscrowSettle checks that escrow settlements join the
// block's fold: the checker recognises the embedded verify calldata, the
// settled exchange's inner verification runs at the amortised gas of the
// fold the header records, and the saving against an eagerly executed
// control is exactly the schedules' difference.
func TestBlockProofCheckerEscrowSettle(t *testing.T) {
	c, settles := escrowFixture(t, 3)

	// Settles 1 and 2 are produced as one block (fold width 2, so the
	// pairing gas is halved); settle 3 executes eagerly as the full-price
	// control.
	res, err := c.ProduceBlock(settles[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Block.TxHashes) != 2 || res.ProofsVerified != 2 || res.Block.Fold != 2 {
		t.Fatalf("included %d, verified %d, fold %d; want 2, 2, 2", len(res.Block.TxHashes), res.ProofsVerified, res.Block.Fold)
	}
	ctl := mustSucceed(t, call(t, c, settles[2].From, EscrowName, "settle", 0, settles[2].Args))
	for i := range res.Outcomes {
		r := res.Outcomes[i].Receipt
		if r == nil || r.Err != nil {
			t.Fatalf("settle %d: %+v", i, res.Outcomes[i])
		}
		if want := ctl.GasUsed - VerificationGas(3) + BatchVerifiedGas(2, 3); r.GasUsed != want {
			t.Fatalf("folded settle %d gas %d, want control %d − standalone + amortised = %d",
				i, r.GasUsed, ctl.GasUsed, want)
		}
	}
}

// TestProofMarksDoNotOutliveTheirBlock: a settlement whose proof the
// block's fold validated but which reverts before it ever reaches the
// verifier used to leave its consume-once mark behind on the verifier
// object, and the next call with that calldata — in any later block, on
// this node only — was then charged as if folded. The table is the
// block's: the same calldata submitted eagerly in the next block is
// verified alone and pays for it.
func TestProofMarksDoNotOutliveTheirBlock(t *testing.T) {
	c, settles := escrowFixture(t, 1)
	parts, err := DecodeArgsVariadic(settles[0].Args)
	if err != nil {
		t.Fatal(err)
	}
	// The same valid proof, aimed at an exchange nobody opened: the fold
	// validates it, the escrow reverts on the missing exchange first.
	parts[0] = U64(99)
	orphan := settles[0]
	orphan.Args = EncodeArgs(parts...)
	res, err := c.ProduceBlock([]chain.Transaction{orphan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Block.Fold != 1 || res.Outcomes[0].Receipt == nil || res.Outcomes[0].Receipt.Err == nil {
		t.Fatalf("fold %d, outcome %+v; want a folded, reverted settlement", res.Block.Fold, res.Outcomes[0])
	}
	verifyArgs := EncodeArgs(parts[2:]...)
	r := mustSucceed(t, call(t, c, orphan.From, "pik-verifier", "verify", 0, verifyArgs))
	if want := intrinsicGas(verifyArgs) + VerificationGas(3); r.GasUsed != want {
		t.Fatalf("verify after the block charged %d, want standalone %d (a mark outlived its block)", r.GasUsed, want)
	}
}

// TestProofTableSharedByDuplicateCalldata: four transactions carrying the
// same verify calldata are four proof items in one fold and one table
// entry, which does not wear out with use — each is charged the width-4
// schedule — and does not survive the block.
func TestProofTableSharedByDuplicateCalldata(t *testing.T) {
	ps := testProofSystem()
	c := proofChain(t, ps.vk)
	senders := make([]chain.Address, 4)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("v-sender-%d", i))
	}
	verifyArgs := VerifyArgs(ps.proof, ps.public)
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

// chainImage is everything an importer must leave untouched when it
// refuses a block.
type chainImage struct {
	head, root chain.Hash
	nonces     []uint64
	receipts   []bool
}

func imageOf(c *chain.Chain, senders []chain.Address, txs []chain.Transaction) chainImage {
	img := chainImage{head: c.HeadHash(), root: c.Head().StateRoot}
	for _, s := range senders {
		img.nonces = append(img.nonces, c.NonceOf(s), c.BalanceOf(s))
	}
	for i := range txs {
		_, ok := c.Receipt(txs[i].Hash())
		img.receipts = append(img.receipts, ok)
	}
	return img
}

// TestImportRefusesFoldDisagreement pins header/body agreement: the fold a
// header records must be exactly what the body's proof check validates.
// Too high, too low, non-zero over a proof-free body and non-zero on a
// chain that folds nothing are each refused with the follower unchanged;
// the honest header then still imports.
func TestImportRefusesFoldDisagreement(t *testing.T) {
	ps := batchProofSystem()
	proofs, publics := mintProofs(t, 2)
	alice, bob := chain.AddressFromString("alice"), chain.AddressFromString("bob")
	senders := []chain.Address{alice, bob}
	genesis := func(withVerifier bool) *chain.Chain {
		c := chain.New()
		if withVerifier {
			c = proofChain(t, ps.vk)
		} else if _, err := c.Deploy("verifier", NewVerifier(ps.vk), VerifierCodeSize); err != nil {
			t.Fatal(err)
		}
		c.Faucet(alice, 1_000)
		return c
	}
	producer := genesis(true)
	proofTxs := []chain.Transaction{
		{From: alice, Contract: "verifier", Method: "verify", Args: VerifyArgs(proofs[0], publics[0])},
		{From: bob, Contract: "verifier", Method: "verify", Args: VerifyArgs(proofs[1], publics[1])},
	}
	folded, err := producer.ProduceBlock(proofTxs)
	if err != nil || folded.Block.Fold != 2 {
		t.Fatalf("produce: fold %d, %v", folded.Block.Fold, err)
	}
	plain, err := producer.ProduceBlock([]chain.Transaction{{From: alice, To: bob, Value: 5, Nonce: 1}})
	if err != nil || plain.Block.Fold != 0 || len(plain.Block.TxHashes) != 1 {
		t.Fatalf("produce plain: %+v, %v", plain, err)
	}
	foldedBody, _ := producer.BlockBody(folded.Block.Number)
	plainBody, _ := producer.BlockBody(plain.Block.Number)
	allTxs := append(append([]chain.Transaction{}, foldedBody...), plainBody...)

	refuse := func(what string, f *chain.Chain, b chain.Block, body []chain.Transaction) {
		t.Helper()
		before := imageOf(f, senders, allTxs)
		if _, err := f.ImportBlock(b, body); !errors.Is(err, chain.ErrBadBody) {
			t.Fatalf("%s: err %v, want ErrBadBody", what, err)
		}
		if after := imageOf(f, senders, allTxs); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: refused block left a trace:\n before %+v\n after  %+v", what, before, after)
		}
	}
	follower := genesis(true)
	lie := folded.Block
	lie.Fold = 3
	refuse("fold too high", follower, lie, foldedBody)
	lie.Fold = 1
	refuse("fold too low", follower, lie, foldedBody)
	refuse("no verifier installed", genesis(false), folded.Block, foldedBody)
	if _, err := follower.ImportBlock(folded.Block, foldedBody); err != nil {
		t.Fatalf("honest folded block after the refusals: %v", err)
	}
	lie = plain.Block
	lie.Fold = 1
	refuse("fold over a proof-free body", follower, lie, plainBody)
	if _, err := follower.ImportBlock(plain.Block, plainBody); err != nil {
		t.Fatalf("honest plain block after the refusal: %v", err)
	}
	if follower.HeadHash() != producer.HeadHash() {
		t.Fatal("follower and producer heads differ")
	}
}
