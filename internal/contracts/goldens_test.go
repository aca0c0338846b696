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
// state root and the rejects digest held. The head, the receipts digest and
// every state root were re-captured once more when a token came to store one
// record digest instead of its URI, commitment and parents (storage layout,
// gas, and the record in the mint's Transfer event); the rejects digest held.
// The head and the receipts digest were re-captured once more when every
// block came to be produced through the one fold: block 4's lone settlement
// went from Fold 0 to Fold 1 at the same gas (with its Fold counted as 0 the
// new chain reproduces the old receipts digest); every state root and the
// rejects digest held. The head and the receipts digest were re-captured
// once more when proofs moved to version 3, testdata/golden_pik.hex re-proved
// as a 646-byte classic proof (head 0x76c0a085… → 0x3f97fc82…, receipts
// 0d1af68f… → 2df8299a…: new transaction hashes, 128 calldata bytes fewer
// per settlement); every state root and the rejects digest held. The head
// and the receipts digest were re-captured once more when the classic proof
// shape was deleted, testdata/golden_pik.hex re-proved as a 742-byte
// custom-shape proof, the only shape a deployed escrow receives (head
// 0x3f97fc82… → 0x1d93ff7b…, receipts 2df8299a… → 8b411f62…: new
// transaction hashes, 96 calldata bytes and 1 152 gas more per settlement,
// block 4's lone one 321 381 → 322 533); every state root and the rejects
// digest held.
const (
	goldenHead     = "0x1d93ff7bf4f18cdcc7a6adf6094d92072362a711474ca4fe3680ea748714afcb"
	goldenReceipts = "8b411f6280bdd4b550da1ea6770c5df0fa6e37984304ff4474700836f17ac7a5"
	goldenRejects  = "9dde9ca93dbea9d5c853346fee3c3dd9256531f0beb30f26ed299e7efed83ca9"
)

// goldenRoots[i] is the state root of block i+1.
var goldenRoots = []string{
	"0x5ca389897bbca62c2eb5b2e0e67736e28d308443a99bcaf55dfdc7d1c053f62e",
	"0xb9e977f5d427f4bed7578ba60ca83d811ef8e98a36c45f942931cf6c08bf8494",
	"0x370f14197f08a6972154aba2a8f7035f9ff03a316268e9fca8b97320e18b4ba1",
	"0x8db9ff6ca0df3d6a54e238ea5302a51d68c4c00631462fa18214be0be8b4be3b",
	"0x6de491f44e7e9efcddb98e48a580ec5e1a2da1509ebfdaed5918179dcacb5182",
	"0xa88a0df4e0c53b54b3a421bd5215f392585885120aa2ed619b0d56704c5c0c53",
	"0x75442aff9bbb82ae6b09ead380c0dcd92df58ff63e326a8a90c9dbd82eb72dff",
	"0xa47ef31485c008b5d30b72b7e11feec086d95c35cd451ca3e53731c1dd44399e",
	"0xb00141e6f65807bed4ba149b2a32967bd35133d76b85980c53e05ab6d94e72cb",
	"0x97eef3362da7c78c8731ca410ed664fbe69eb72f602a0ad363789162ad8ccd7f",
	"0x619392d4506bbc57892f780465c75558637e758f33632c1e1e217d74876c050e",
	"0xe91c869a40db650b420d67a1e64a680f78411c9bb13d7fcb49a0b0978b73897d",
	"0x4794dd567718657ef998e5f890b9ac3b97c198aee492bec310d7fca660c0155d",
	"0x2788bda0b62a4094ac45a56b47059c40ee8a0a8e767e6652887002380e2f29c9",
	"0x9815caf335b70d1e05a182a8ab4ab3ef8c9ca01993bff15ad5b7e2d14b4d656e",
	"0x0ecaa9fb470bf49e39d70fe46eb65f2c2e05a2e00dadcde9e5a42e6d8be4f1c6",
	"0xbe7a6683dcfc61771515ae2f58e48cafc5b204b2aa387cbbbeeb0994103d4573",
	"0x1ebe18629531101d0a9f4fbee6f131ffa4ab240f8177898bc91718fc3cb93cac",
	"0x8bd4ca57d23eedd40e08fa740109bbd4d13292daa96c5c39eceba57a01829017",
	"0x9617a6071672f7fa0aaf1b83d2e8af1a86bb1339a5ca7507f6b8c0883c133c50",
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
	mustAdd(t, bc, "pik-verifier", verifier)
	mustAdd(t, bc, EscrowName, escrow)
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

// produce turns a body into the next block, the one way there is, and
// folds every candidate it refused into the rejects digest.
func (w *goldenWorld) produce(txs []chain.Transaction) chain.Produced {
	w.step++
	p := w.c.ProduceBlock(txs)
	for i, o := range p.Outcomes {
		if o.Err != nil {
			w.reject(i, o.Err)
		}
	}
	return p
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

	// Block 2, no proof among them: the five proof-carrying exchanges open (deadline
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
	if p := w.produce(txs); p.Block.Fold != 0 || len(p.Block.TxHashes) != len(txs) {
		t.Fatalf("block 2: fold %d, %d txs", p.Block.Fold, len(p.Block.TxHashes))
	}

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

	// Block 4: the same proof alone in its block, a fold of one — what a
	// lone verification costs — beside a burn.
	p := w.produce([]chain.Transaction{
		settle(3, sellers[2], proofBytes, true),
		w.tx(traders[3], DataNFTName, "burn", 0, EncodeArgs(U64(1)), true),
	})
	delete(w.owner, 1)
	if p.Block.Fold != 1 || len(p.Block.TxHashes) != 2 {
		t.Fatalf("block 4: fold %d, %d txs", p.Block.Fold, len(p.Block.TxHashes))
	}

	// Blocks 5..19: the seeded mix.
	for round := 0; round < 15; round++ {
		w.produce(w.randomBatch(20 + w.rng.Intn(50)))
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
