package contracts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/plonk"
)

// The constants TestBlockGoldens pins. They were captured from the journaled
// executor and, in the commit that added the test, asserted against the
// speculative overlay engine at widths 2..8 before that engine was deleted;
// they are a statement about what the chain computes, so no executor change
// may touch them. The head and receipts digest were re-captured once when
// π_k moved to the 774-byte linearized proof encoding (testdata/golden_pik.hex
// re-proved: new transaction hashes, 3 840 gas less per settlement); every
// state root and the rejects digest held.
const (
	goldenHead     = "0x44c2b5119a6893d58ab9bda409d4ec21129e906d263cc3d34a752199469419e0"
	goldenReceipts = "83e601fdfb7c8d62e37fc12ebd52ff481d1c497a5dc3781d8b2f7684ba0f0d3f"
	goldenRejects  = "9dde9ca93dbea9d5c853346fee3c3dd9256531f0beb30f26ed299e7efed83ca9"
)

// goldenRoots[i] is the state root of block i+1.
var goldenRoots = []string{
	"0x946769fb1f17fc5421eede0c1fd05aa165922f1c5e20ab4cedd27a35c1c210f9",
	"0x86900f6a473a862124f681a7e6aa1a24eb9a0c8f34cfb388abb73f22dadaa64d",
	"0x4e0dcfe6398858732ed6aa08dba0b82b924db3fb7f389ae02531af32d8eeaab3",
	"0x88b804b8090d657f5ee6bd5beaa0c6987c8b0a67f5928271de0c3f2abe25f749",
	"0x2c6e1dba0fcb002c346ae88a1c2cf6360d3082b948fbf728f451ce284ee76b4f",
	"0x25d65237ef3814a045d03963918cb48477d41e804af3b44bd5ab9714725c8502",
	"0x22953e00e92c8ecddf303ed5711380b9c3eca4f652b4c67035260dd440daef2b",
	"0xe6f0fb525cf13c7bf9b1ad4aee2729f9c27d3ff6e190c3c2d326eb7f80854770",
	"0x0cd925b76a311757d3e5ba4da5a8af0ee4c6df8efd53a1e8a15d1b9a8e575561",
	"0x829de4757803a815c507ff84ea3e418a7df377fb1228c75106a9cffc50701766",
	"0x804bf385cf0a4feb16ed445afced046258346551a30ddd74b127ba5bf2153960",
	"0xe1bf67d90294ea0c34e677c7bcf8c34d2a45174d8aca76e8e34632fa4780c581",
	"0x47734f8c43830f76ea331079e3f717647ec4d063b8b81c99d0107259e3068f22",
	"0x45e2a3240a9c94c2a7fd36187fe4ddbc1d97e9c1056d01a52f3c49216862e88b",
	"0x1b12c94a0e81f37be24a28ee281c49c013ebd237ae8ef1f89f84d6530d3e0677",
	"0x6128dd651d291aa3078f37704e65a1e6b5953a3c95f351577a0b16c8f59180bb",
	"0x7c89febfcde02bcdf15067bd62a42c978083b9f61edc57ab3f5ce27c8a513d0c",
	"0x9ecf4c48272cdfaf0f40208c06a3f9dcd1382a6b9b03b072f0bfa37b0d179bbf",
	"0x03e029c099289362fc38d733db64b527f7a4cf70ea5435bbaf9bc6e868c753ce",
	"0xc69725ddd2ecfa3cd947ebb922f71b9541e22d1526f9ed80b462bd356b1fcc7b",
}

// goldenWorld drives one chain through the golden workload and keeps the
// generator's model of it: per-sender nonces, who owns which token, which
// exchanges are open. The model only steers the mix of succeeding and
// reverting calls; the chain decides what happens.
type goldenWorld struct {
	t       *testing.T
	c       *chain.Chain
	rng     *rand.Rand
	traders []chain.Address
	nonces  map[chain.Address]uint64
	owner   map[uint64]int // live token → index of the trader holding it
	tokens  uint64         // DataNFT ids handed out so far
	exs     uint64         // escrow exchange ids handed out so far
	rejects hash.Hash      // every Go-level failure: step, position, error text
	step    int
}

const (
	goldenTraders = 6
	goldenTimeout = 3 // escrow refund deadline, in blocks
	// Exchange ids 1..5 are the proof-carrying ones the fixed blocks settle
	// and refund; the random rounds open theirs above.
	goldenProofExchanges = 5
)

// goldenGenesis is the genesis every replica of the workload starts from:
// the four contracts, the block proof checker over verifier and escrow,
// funded traders.
func goldenGenesis(t *testing.T, vk *plonk.VerifyingKey) (*chain.Chain, []chain.Address) {
	t.Helper()
	c := chain.New()
	verifier, escrow := NewVerifier(vk), NewEscrow("pik-verifier", goldenTimeout)
	for _, d := range []struct {
		name string
		ct   chain.Contract
		size int
	}{
		{DataNFTName, &DataNFT{}, DataNFTCodeSize},
		{AuctionName, NewClockAuction(DataNFTName), AuctionCodeSize},
		{"pik-verifier", verifier, VerifierCodeSize},
		{EscrowName, escrow, EscrowCodeSize},
	} {
		if _, err := c.Deploy(d.name, d.ct, d.size); err != nil {
			t.Fatal(err)
		}
	}
	bc := NewBlockProofChecker()
	bc.Add("pik-verifier", verifier)
	bc.Add(EscrowName, escrow)
	c.SetBlockVerifier(bc)
	traders := make([]chain.Address, goldenTraders)
	for i := range traders {
		traders[i] = chain.AddressFromString(fmt.Sprintf("golden-trader-%d", i))
		c.Faucet(traders[i], 10_000_000)
	}
	return c, traders
}

// tx builds a transaction at the sender's next nonce; keeps says whether
// the chain will process it (success or revert — both spend the nonce) or
// refuse it at the Go level (nothing happens).
func (w *goldenWorld) tx(from chain.Address, contract, method string, value uint64, args []byte, keeps bool) chain.Transaction {
	tx := chain.Transaction{From: from, Contract: contract, Method: method, Args: args, Value: value, Nonce: w.nonces[from]}
	if keeps {
		w.nonces[from]++
	}
	return tx
}

// pickToken picks a token the model says trader s holds (most of the time) or
// any id at all, minted or not.
func (w *goldenWorld) pickToken(s int) uint64 {
	if w.rng.Intn(10) < 7 {
		var mine []uint64
		for id := uint64(1); id <= w.tokens; id++ {
			if o, ok := w.owner[id]; ok && o == s {
				mine = append(mine, id)
			}
		}
		if len(mine) > 0 {
			return mine[w.rng.Intn(len(mine))]
		}
	}
	return 1 + uint64(w.rng.Intn(int(w.tokens)+2))
}

func (w *goldenWorld) owns(s int, ids ...uint64) bool {
	for _, id := range ids {
		if o, ok := w.owner[id]; !ok || o != s {
			return false
		}
	}
	return true
}

// randomBatch is size transactions over every shape the executor handles:
// mints, transfers, the lineage transformations, burns, escrow opens and
// refunds, plain value moves, calls that revert (wrong owner, unknown
// token, out of gas mid-call) and candidates refused at the Go level (bad
// nonce, unknown contract, unfunded value, intrinsic gas above the limit,
// value to the zero address).
func (w *goldenWorld) randomBatch(size int) []chain.Transaction {
	txs := make([]chain.Transaction, 0, size)
	for len(txs) < size {
		s := w.rng.Intn(len(w.traders))
		from := w.traders[s]
		uri := []byte(fmt.Sprintf("uri-%d-%d", w.step, len(txs)))
		commit := []byte(fmt.Sprintf("commit-%d-%d", w.step, len(txs)))
		switch op := w.rng.Intn(20); op {
		case 0, 1, 2:
			w.tokens++
			w.owner[w.tokens] = s
			txs = append(txs, w.tx(from, DataNFTName, "mint", 0, EncodeArgs(uri, commit), true))
		case 3, 4, 5:
			id, to := w.pickToken(s), w.rng.Intn(len(w.traders))
			tx := w.tx(from, DataNFTName, "transfer", 0, EncodeArgs(U64(id), w.traders[to][:]), true)
			if w.rng.Intn(8) == 0 { // runs out of gas after the first storage read
				tx.GasLimit = chain.GasTxBase + uint64(len(tx.Args))*chain.GasCalldataByte + chain.GasSLoad + 100
			} else if w.owns(s, id) {
				w.owner[id] = to
			}
			txs = append(txs, tx)
		case 6, 7:
			id := w.pickToken(s)
			if w.owns(s, id) {
				w.tokens++
				w.owner[w.tokens] = s
			}
			txs = append(txs, w.tx(from, DataNFTName, "duplicate", 0, EncodeArgs(U64(id), uri, commit), true))
		case 8, 9:
			a, b := w.pickToken(s), w.pickToken(s)
			method := []string{"aggregate", "process"}[w.rng.Intn(2)]
			if w.owns(s, a, b) {
				w.tokens++
				w.owner[w.tokens] = s
			}
			txs = append(txs, w.tx(from, DataNFTName, method, 0, EncodeArgs(U64List([]uint64{a, b}), uri, commit), true))
		case 10:
			id := w.pickToken(s)
			if w.owns(s, id) {
				delete(w.owner, id)
			}
			txs = append(txs, w.tx(from, DataNFTName, "burn", 0, EncodeArgs(U64(id)), true))
		case 11, 12:
			to := w.traders[w.rng.Intn(len(w.traders))]
			if w.rng.Intn(3) == 0 {
				to = chain.AddressFromString(fmt.Sprintf("golden-cold-%d", w.rng.Intn(4)))
			}
			tx := w.tx(from, "", "", uint64(w.rng.Intn(900)), nil, true)
			tx.To = to
			txs = append(txs, tx)
		case 13, 14:
			id := w.exs + 1
			if w.rng.Intn(6) == 0 && w.exs > 0 {
				id = 1 + uint64(w.rng.Intn(int(w.exs))) // already open: reverts, value refunded
			} else {
				w.exs++
			}
			seller := w.traders[w.rng.Intn(len(w.traders))]
			txs = append(txs, w.tx(from, EscrowName, "open", uint64(100+w.rng.Intn(900)),
				EncodeArgs(U64(id), seller[:], []byte("hv"), []byte("c")), true))
		case 15:
			// Mostly too early or somebody else's; the old ones pay out. The
			// proof-carrying exchanges (the lowest ids) are left alone.
			id := goldenProofExchanges + 1 + uint64(w.rng.Intn(int(w.exs)-goldenProofExchanges+1))
			txs = append(txs, w.tx(from, EscrowName, "refund", 0, EncodeArgs(U64(id)), true))
		case 16:
			tx := w.tx(from, "", "", 1, nil, false)
			tx.To = w.traders[(s+1)%len(w.traders)]
			tx.Nonce += uint64(1 + w.rng.Intn(3))
			txs = append(txs, tx)
		case 17:
			txs = append(txs, w.tx(from, "golden-nope", "x", uint64(w.rng.Intn(2)), nil, false))
		case 18:
			tx := w.tx(from, "", "", 1<<60, nil, false)
			if w.rng.Intn(2) == 0 {
				tx.To = w.traders[(s+1)%len(w.traders)] // unfunded
			} else {
				tx.Value = 5 // no recipient
			}
			txs = append(txs, tx)
		case 19:
			tx := w.tx(from, DataNFTName, "mint", 0, EncodeArgs(uri, commit), false)
			tx.GasLimit = chain.GasTxBase / 2
			txs = append(txs, tx)
		}
	}
	return txs
}

// reject folds one Go-level failure into the rejects digest.
func (w *goldenWorld) reject(i int, err error) {
	fmt.Fprintf(w.rejects, "%d/%d:%s\n", w.step, i, err)
}

// The three ways a body becomes a block. produce is the block producer's
// atomic apply-and-seal; batch and eager execute first (as one SubmitBatch,
// or one Submit per transaction) and seal after.
func (w *goldenWorld) produce(txs []chain.Transaction) chain.Produced {
	w.t.Helper()
	w.step++
	p, err := w.c.ProduceBlock(txs)
	if err != nil {
		w.t.Fatalf("step %d: produce: %v", w.step, err)
	}
	for i, o := range p.Outcomes {
		if o.Err != nil {
			w.reject(i, o.Err)
		}
	}
	return p
}

func (w *goldenWorld) batch(txs []chain.Transaction) {
	w.step++
	for i, o := range w.c.SubmitBatch(txs, 0) {
		if o.Err != nil {
			w.reject(i, o.Err)
		}
	}
	w.c.SealBlock()
}

func (w *goldenWorld) eager(txs []chain.Transaction) {
	w.step++
	for i := range txs {
		if _, err := w.c.Submit(txs[i]); err != nil {
			w.reject(i, err)
		}
	}
	w.c.SealBlock()
}

// chainDigest is the state root of every sealed block and a digest of every
// receipt the chain holds, walked block by block through the public API.
func chainDigest(t *testing.T, c *chain.Chain) (roots []string, receipts string) {
	t.Helper()
	h := sha256.New()
	put := func(b []byte) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(b)))
		h.Write(l[:])
		h.Write(b)
	}
	for n := uint64(1); n <= c.Height(); n++ {
		b, _ := c.BlockByNumber(n)
		roots = append(roots, b.StateRoot.String())
		put(U64(uint64(b.Fold)))
		for _, txh := range b.TxHashes {
			r, ok := c.Receipt(txh)
			if !ok {
				t.Fatalf("block %d: no receipt for %s", n, txh)
			}
			put(r.TxHash[:])
			put(U64(r.GasUsed))
			put(r.Return)
			put(U64(uint64(len(r.Logs))))
			for _, ev := range r.Logs {
				put([]byte(ev.Contract))
				put([]byte(ev.Name))
				put(ev.Topic)
				put(ev.Data)
			}
			if r.Err != nil {
				put([]byte(r.Err.Error()))
			} else {
				put(nil)
			}
		}
	}
	return roots, hex.EncodeToString(h.Sum(nil))
}

// runGoldenWorkload builds the golden chain.
func runGoldenWorkload(t *testing.T) *goldenWorld {
	t.Helper()
	ef := escrowProofSystem()
	raw, err := os.ReadFile("testdata/golden_pik.hex")
	if err != nil {
		t.Fatal(err)
	}
	proofBytes, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// The one pre-proved π_k: proofs are blinded, so a fresh one would move
	// every transaction hash. It must still verify under the key Setup
	// derives today.
	proof, err := plonk.ProofFromBytes(proofBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonk.Verify(ef.vk, proof, ef.witness); err != nil {
		t.Fatalf("testdata/golden_pik.hex no longer verifies (re-prove escrowProofSystem's statement and re-capture every golden): %v", err)
	}

	c, traders := goldenGenesis(t, ef.vk)
	w := &goldenWorld{
		t: t, c: c, rng: rand.New(rand.NewSource(20)), traders: traders,
		nonces: make(map[chain.Address]uint64), owner: make(map[uint64]int), rejects: sha256.New(),
	}
	kcB, cB, hvB := ef.witness[0].Bytes(), ef.witness[1].Bytes(), ef.witness[2].Bytes()
	sellers := make([]chain.Address, goldenProofExchanges)
	for i := range sellers {
		sellers[i] = chain.AddressFromString(fmt.Sprintf("golden-seller-%d", i))
	}
	w.exs = goldenProofExchanges
	settle := func(id uint64, seller chain.Address, pik []byte, keeps bool) chain.Transaction {
		return w.tx(seller, EscrowName, "settle", 0, EncodeArgs(U64(id), kcB[:], pik, kcB[:], cB[:], hvB[:]), keeps)
	}

	// Block 1, produced: every trader mints twice (ids 1..12, token i+1 and
	// i+7 to trader i), among plain transfers and candidates that cannot
	// execute.
	var txs []chain.Transaction
	for round := 0; round < 2; round++ {
		for i, tr := range traders {
			w.tokens++
			w.owner[w.tokens] = i
			txs = append(txs, w.tx(tr, DataNFTName, "mint", 0,
				EncodeArgs([]byte(fmt.Sprintf("uri-%d", w.tokens)), []byte(fmt.Sprintf("commit-%d", w.tokens))), true))
			pay := w.tx(tr, "", "", uint64(10*(i+1)), nil, true)
			pay.To = traders[(i+2)%len(traders)]
			txs = append(txs, pay)
		}
		txs = append(txs, w.tx(traders[round], "golden-nope", "x", 3, nil, false))
	}
	pauper := w.tx(chain.AddressFromString("golden-pauper"), "", "", 1, nil, false)
	pauper.To = traders[0]
	txs = append(txs, pauper)
	if p := w.produce(txs); p.Block.Fold != 0 || len(p.Block.TxHashes) != 4*len(traders) {
		t.Fatalf("block 1: fold %d, %d txs", p.Block.Fold, len(p.Block.TxHashes))
	}

	// Block 2, one batch: the five proof-carrying exchanges open (deadline
	// block 5), lineage transformations race transfers of their parents, an
	// auction is listed and won through the cross-contract transferFrom, and
	// a second bid reverts inside the callee after its value moved.
	txs = nil
	for i, seller := range sellers {
		txs = append(txs, w.tx(traders[i%len(traders)], EscrowName, "open", uint64(5000+i),
			EncodeArgs(U64(uint64(i+1)), seller[:], hvB[:], cB[:]), true))
	}
	auctionOp := chain.ContractAddress(AuctionName)
	nft := func(s int, method string, parts ...[]byte) chain.Transaction {
		return w.tx(traders[s], DataNFTName, method, 0, EncodeArgs(parts...), true)
	}
	b := func(s string) []byte { return []byte(s) }
	txs = append(txs,
		nft(0, "aggregate", U64List([]uint64{1, 7}), b("uri-agg"), b("commit-agg")), // id 13
		nft(0, "transfer", U64(1), traders[3][:]),
		nft(0, "duplicate", U64(1), b("uri-late"), b("commit-late")), // reverts: token 1 is gone
		nft(1, "duplicate", U64(2), b("uri-dup"), b("commit-dup")),   // id 14
		nft(1, "burn", U64(2)),
		nft(1, "burn", U64(2)), // reverts: burned
		nft(2, "partition", U64(3), b("uri-p1"), b("commit-p1"), b("uri-p2"), b("commit-p2")), // ids 15, 16
		nft(4, "approve", U64(5), auctionOp[:]),
		w.tx(traders[4], AuctionName, "create", 0, EncodeArgs(U64(5), U64(5000), U64(1000), U64(100)), true),
		w.tx(traders[5], AuctionName, "create", 0, EncodeArgs(U64(6), U64(400), U64(200), U64(50)), true), // listed, never approved
		w.tx(traders[2], AuctionName, "bid", 6000, EncodeArgs(U64(5)), true),
		w.tx(traders[3], AuctionName, "bid", 700, EncodeArgs(U64(6)), true), // reverts in transferFrom; the 700 comes back
	)
	w.owner[13], w.owner[1], w.owner[14] = 0, 3, 1
	delete(w.owner, 2)
	w.owner[15], w.owner[16], w.owner[5] = 2, 2, 2
	w.tokens = 16
	w.batch(txs)

	// Block 3, produced under a fold: two settlements carry the pinned proof
	// (fold 2), a third a proof that does not verify (evicted), and a
	// candidate that cannot execute takes the first attempt at the block
	// back, so the table is recomputed over the body that seals.
	txs = []chain.Transaction{
		settle(1, sellers[0], proofBytes, true),
		w.tx(traders[0], DataNFTName, "mint", 0, EncodeArgs([]byte("uri-17"), []byte("commit-17")), true),
		settle(3, sellers[2], breakProof(proof).Bytes(), false),
		w.tx(traders[1], "golden-nope", "y", 0, nil, false),
		settle(2, sellers[1], proofBytes, true),
		settle(2, sellers[1], proofBytes, true), // reverts: already settled; its proof is still in the fold
	}
	w.tokens++
	w.owner[w.tokens] = 0
	if p := w.produce(txs); p.Block.Fold != 3 || p.ProofsEvicted != 1 || len(p.Block.TxHashes) != 4 {
		t.Fatalf("block 3: fold %d, evicted %d, %d txs", p.Block.Fold, p.ProofsEvicted, len(p.Block.TxHashes))
	}

	// Block 4, executed eagerly: the same proof verified alone, sealed as a
	// Fold-0 block that nevertheless carries a settlement.
	w.eager([]chain.Transaction{
		settle(3, sellers[2], proofBytes, true),
		w.tx(traders[3], DataNFTName, "burn", 0, EncodeArgs(U64(1)), true),
	})
	delete(w.owner, 1)
	if b := c.Head(); b.Fold != 0 || len(b.TxHashes) != 2 {
		t.Fatalf("block 4: fold %d, %d txs", b.Fold, len(b.TxHashes))
	}

	// Blocks 5..19: the seeded mix, through each of the three paths in turn.
	for round := 0; round < 15; round++ {
		txs := w.randomBatch(20 + w.rng.Intn(50))
		switch round % 3 {
		case 0:
			w.produce(txs)
		case 1:
			w.batch(txs)
		case 2:
			w.eager(txs)
		}
	}

	// Block 20, produced: exchange 4 is past its deadline — its settlement
	// is folded and reverts, its buyer's refund pays out — and exchange 5 is
	// refunded by somebody who is not its buyer.
	txs = []chain.Transaction{
		settle(4, sellers[3], proofBytes, true),
		w.tx(traders[3], EscrowName, "refund", 0, EncodeArgs(U64(4)), true),
		w.tx(traders[0], EscrowName, "refund", 0, EncodeArgs(U64(5)), true),
	}
	if p := w.produce(txs); p.Block.Fold != 1 || len(p.Block.TxHashes) != 3 ||
		!errors.Is(p.Outcomes[0].Receipt.Err, ErrDeadlinePassed) || p.Outcomes[1].Receipt.Err != nil ||
		!errors.Is(p.Outcomes[2].Receipt.Err, ErrNotBuyer) {
		t.Fatalf("block 20: fold %d, outcomes %+v", p.Block.Fold, p.Outcomes)
	}
	return w
}

// TestBlockGoldens pins what the chain computes for a fixed workload over
// the real contracts: the head hash, every block's state root, every
// receipt (gas, return data, logs, error text) and every Go-level refusal.
// A fresh follower importing the chain block by block must arrive at the
// same head and hold the same receipts.
func TestBlockGoldens(t *testing.T) {
	w := runGoldenWorkload(t)
	roots, receipts := chainDigest(t, w.c)
	rejects := hex.EncodeToString(w.rejects.Sum(nil))
	if got := w.c.HeadHash().String(); got != goldenHead {
		t.Errorf("head %s, golden %s", got, goldenHead)
	}
	if len(roots) != len(goldenRoots) {
		t.Fatalf("%d blocks, golden %d", len(roots), len(goldenRoots))
	}
	for i := range roots {
		if roots[i] != goldenRoots[i] {
			t.Errorf("block %d state root %s, golden %s", i+1, roots[i], goldenRoots[i])
		}
	}
	if receipts != goldenReceipts {
		t.Errorf("receipts digest %s, golden %s", receipts, goldenReceipts)
	}
	if rejects != goldenRejects {
		t.Errorf("rejects digest %s, golden %s", rejects, goldenRejects)
	}

	follower, _ := goldenGenesis(t, escrowProofSystem().vk)
	for n := uint64(1); n <= w.c.Height(); n++ {
		b, _ := w.c.BlockByNumber(n)
		body, ok := w.c.BlockBody(n)
		if !ok {
			t.Fatalf("block %d has no body", n)
		}
		if _, err := follower.ImportBlock(b, body); err != nil {
			t.Fatalf("follower refused block %d: %v", n, err)
		}
	}
	if got := follower.HeadHash().String(); got != goldenHead {
		t.Errorf("follower head %s, golden %s", got, goldenHead)
	}
	if _, got := chainDigest(t, follower); got != goldenReceipts {
		t.Errorf("follower receipts digest %s, golden %s", got, goldenReceipts)
	}
}
