package p2p

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/storage"
)

var (
	foldSeller = chain.AddressFromString("fold-seller")
	foldBuyer  = chain.AddressFromString("fold-buyer")
)

// foldGenesis is the deterministic genesis of the fold tests: a funded
// buyer and the marketplace contract suite, which installs the chain's
// block verifier.
func foldGenesis(t *testing.T, sys *core.System) (*chain.Chain, *core.Marketplace) {
	t.Helper()
	c := chain.New()
	c.Faucet(foldBuyer, 1_000_000)
	m, _, err := core.NewMarketplaceWith(sys, c, storage.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

// settlement runs the off-chain half of one key-secure exchange and
// returns the two escrow transactions that carry it on chain, nonces left
// to the caller.
func settlement(t *testing.T, sys *core.System, id uint64) (open, settle chain.Transaction) {
	t.Helper()
	s, err := core.NewSeller(sys, core.Dataset{fr.NewElement(7 + id), fr.NewElement(11)}, fr.NewElement(0xC0FFEE+id), core.TruePredicate{})
	if err != nil {
		t.Fatal(err)
	}
	listing := s.Listing(5000)
	kv, hv := core.NewBuyer(sys, listing, core.TruePredicate{}).Challenge()
	st, piK, err := s.NegotiateKey(kv, hv)
	if err != nil {
		t.Fatal(err)
	}
	hvB, ckB, kcB := hv.Bytes(), listing.KeyCommitment.Bytes(), st.KC.Bytes()
	open = chain.Transaction{From: foldBuyer, Contract: contracts.EscrowName, Method: "open", Value: listing.Price,
		Args: contracts.EncodeArgs(contracts.U64(id), foldSeller[:], hvB[:], ckB[:])}
	settle = chain.Transaction{From: foldSeller, Contract: contracts.EscrowName, Method: "settle",
		Args: contracts.EncodeArgs(contracts.U64(id), kcB[:], piK.Bytes(), kcB[:], ckB[:], hvB[:])}
	return open, settle
}

// TestClusterAgreesOnFoldedGas: a three-member cluster seals one block
// holding two settlements. The leader folds their proofs at seal and
// records the fold in the header; the followers apply the block through
// the same routine. Every member must hold the same receipts field for
// field, and each settlement must have paid the amortised schedule for
// the block's fold width — the schedule that is only ever charged when
// the pairing was skipped, so equality also shows a follower verified each
// proof once (in the fold), not a second time inside the call.
func TestClusterAgreesOnFoldedGas(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterSpec{
		Size: 3,
		Seed: 7,
		Link: LinkProfile{Latency: 100 * time.Microsecond},
		Build: func(i int, id NodeID) (NodeSetup, error) {
			c, _ := foldGenesis(t, sys)
			return NodeSetup{Inner: node.New(c, node.Config{}), Store: storage.NewStore()}, nil
		},
		Tune: tuneFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	var opens, settles []chain.Transaction
	for id := uint64(1); id <= 2; id++ {
		o, s := settlement(t, sys, id)
		o.Nonce, s.Nonce = id-1, id-1
		opens, settles = append(opens, o), append(settles, s)
	}
	for _, o := range opens {
		if res, err := cl.Nodes[0].SubmitAndWait(ctx, o, false); err != nil || res.Receipt.Err != nil {
			t.Fatalf("open: %v %+v", err, res.Receipt)
		}
	}
	// The seller's second settlement goes out first: it sits in every pool
	// behind a nonce gap until the first arrives, then both become
	// executable at once and the due leader pops them into one block.
	second := make(chan error, 1)
	go func() {
		_, err := cl.Nodes[1].SubmitAndWait(ctx, settles[1], false)
		second <- err
	}()
	time.Sleep(100 * time.Millisecond)
	res, err := cl.Nodes[2].SubmitAndWait(ctx, settles[0], false)
	if err != nil {
		t.Fatalf("settle 1: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("settle 2: %v", err)
	}
	if _, err := cl.WaitConverged(ctx, res.BlockNumber); err != nil {
		t.Fatal(err)
	}

	leader := cl.Nodes[0].Inner().Chain()
	b, _ := leader.BlockByNumber(res.BlockNumber)
	if len(b.TxHashes) != 2 || b.Fold != 2 {
		t.Fatalf("settlement block holds %d transactions at fold %d, want 2 and 2", len(b.TxHashes), b.Fold)
	}
	// The same four transactions, each a block of its own, on a reference
	// chain: each settlement folds at width one there, the price of a lone
	// verification.
	ref, _ := foldGenesis(t, sys)
	want := make(map[chain.Hash]uint64)
	for _, tx := range append(append([]chain.Transaction{}, opens...), settles...) {
		o := ref.ProduceBlock([]chain.Transaction{tx}).Outcomes[0]
		r := o.Receipt
		if o.Err != nil || r.Err != nil {
			t.Fatalf("reference %s: %v %+v", tx.Method, o.Err, r)
		}
		if tx.Method == "settle" {
			want[r.TxHash] = r.GasUsed - contracts.VerificationGas(3) + contracts.BatchVerifiedGas(int(b.Fold), 3)
		}
	}
	for n := uint64(1); n <= res.BlockNumber; n++ {
		hdr, _ := leader.BlockByNumber(n)
		for _, h := range hdr.TxHashes {
			lr, _ := leader.Receipt(h)
			if g, folded := want[h]; folded && lr.GasUsed != g {
				t.Fatalf("settlement %s paid %d, want reference − standalone + amortised(%d) = %d", h, lr.GasUsed, b.Fold, g)
			}
			for i, member := range cl.Nodes[1:] {
				got, ok := member.Inner().Chain().Receipt(h)
				if !ok {
					t.Fatalf("node %d has no receipt for %s", i+1, h)
				}
				if got.TxHash != lr.TxHash || got.GasUsed != lr.GasUsed || string(got.Return) != string(lr.Return) ||
					!reflect.DeepEqual(got.Logs, lr.Logs) || (got.Err == nil) != (lr.Err == nil) {
					t.Fatalf("node %d receipt for %s differs from the leader's:\n %+v\n %+v", i+1, h, got, lr)
				}
			}
		}
	}
	sealed, imported := uint64(0), uint64(0)
	for _, n := range cl.Nodes {
		m := n.Inner().Metrics()
		sealed += uint64(m["node.blocksSealed"])
		imported += uint64(m["node.blocksImported"])
	}
	if sealed != res.BlockNumber || imported != 2*res.BlockNumber {
		t.Fatalf("%d blocks sealed and %d imported across the cluster for height %d", sealed, imported, res.BlockNumber)
	}
}

// TestFollowerRefusesFoldedBlockWithBadProof: a peer serves a correctly
// linked, correctly folded-looking block in which one proof does not
// verify. The import is the check — nothing screens the body before it —
// so the chain itself must refuse the block, the peer must be demoted as
// for any invalid block, and the follower must come out of the attempt
// exactly as it went in.
func TestFollowerRefusesFoldedBlockWithBadProof(t *testing.T) {
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	members := MemberIDs(2)
	net := NewSimNet(nil, 13)
	defer net.Close()
	c, _ := foldGenesis(t, sys)
	cfg := Config{ID: members[0], Members: members}
	tuneFast(0, &cfg)
	n0, err := NewNode(cfg, node.New(c, node.Config{}), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n0.Stop)

	// Two direct π_k verifications; the second proof has its ζ-opening
	// swapped for an unrelated point, so it decodes but fails its pairing.
	verifyTx := func(id uint64, from chain.Address, corrupt bool) chain.Transaction {
		_, settle := settlement(t, sys, id)
		parts, err := contracts.DecodeArgsVariadic(settle.Args)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			p, err := plonk.ProofFromBytes(parts[2])
			if err != nil {
				t.Fatal(err)
			}
			s, g := fr.NewElement(0xbad), bn254.G1Generator()
			p.WZeta = bn254.G1ScalarMul(&g, &s)
			parts[2] = p.Bytes()
		}
		return chain.Transaction{From: from, Contract: core.PiKVerifierName, Method: "verify",
			Args: contracts.EncodeArgs(parts[2:]...), GasLimit: chain.DefaultGasLimit}
	}
	senders := []chain.Address{chain.AddressFromString("honest"), chain.AddressFromString("forger")}
	body := []chain.Transaction{verifyTx(1, senders[0], false), verifyTx(2, senders[1], true)}
	bad := chain.Block{Number: 1, Parent: c.HeadHash(), TxHashes: []chain.Hash{body[0].Hash(), body[1].Hash()},
		StateRoot: c.Head().StateRoot, Fold: 2}

	type image struct {
		head, root chain.Hash
		nonces     []uint64
		receipts   []bool
	}
	snap := func() image {
		img := image{head: c.HeadHash(), root: c.Head().StateRoot}
		for i := range body {
			_, ok := c.Receipt(body[i].Hash())
			img.nonces = append(img.nonces, c.NonceOf(senders[i]))
			img.receipts = append(img.receipts, ok)
		}
		return img
	}
	before := snap()

	evil := members[1]
	if err := net.Attach(evil, func(from NodeID, msg Message) {
		switch msg.Kind {
		case MsgGetHeaders:
			net.Send(evil, from, Message{Kind: MsgHeaders, ReqID: msg.ReqID, OK: true,
				Headers: []chain.Block{bad}, Height: 1, Head: bad.Hash()})
		case MsgGetBody:
			net.Send(evil, from, Message{Kind: MsgBody, ReqID: msg.ReqID, OK: true,
				Txs: body, Height: 1, Head: bad.Hash()})
		}
	}); err != nil {
		t.Fatal(err)
	}
	net.Send(evil, members[0], Message{Kind: MsgStatus, Height: 1, Head: bad.Hash()})
	waitFor(t, 10*time.Second, func() bool { return n0.PeerScore(evil) <= scoreInvalidBlock })
	if after := snap(); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused block left a trace:\n before %+v\n after  %+v", before, after)
	}
	if n0.Metrics()["p2p.syncImports"] != 0 {
		t.Fatal("the block was imported")
	}
	// And it was the proof that sank it, at the chain's own check.
	if _, err := c.ImportBlock(bad, body); !errors.Is(err, chain.ErrImportFailed) ||
		!strings.Contains(err.Error(), "tx 1: "+contracts.ErrProofRejected.Error()) {
		t.Fatalf("chain refused the block with %v, want transaction 1's proof rejected", err)
	}
}

// TestMarketplaceChainScreensForgedSettle: a member whose chain has a
// marketplace genesis, and nothing else wired, screens gossip through that
// chain's block verifier. A peer pushing escrow settlements whose π_k fails
// its pairing is counted under p2p.txsInvalid and demoted, and none of its
// transactions reaches the pool.
func TestMarketplaceChainScreensForgedSettle(t *testing.T) {
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	members := MemberIDs(2)
	net := NewSimNet(nil, 17)
	defer net.Close()
	c, _ := foldGenesis(t, sys)
	c.Faucet(foldSeller, 1_000_000)
	cfg := Config{ID: members[0], Members: members}
	tuneFast(0, &cfg)
	n0, err := NewNode(cfg, node.New(c, node.Config{}), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n0.Stop)
	evil := members[1]
	evilMember(t, net, evil)

	_, settle := settlement(t, sys, 1)
	parts, err := contracts.DecodeArgsVariadic(settle.Args)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plonk.ProofFromBytes(parts[2])
	if err != nil {
		t.Fatal(err)
	}
	s, g := fr.NewElement(0xbad), bn254.G1Generator()
	p.WZeta = bn254.G1ScalarMul(&g, &s)
	parts[2] = p.Bytes()
	settle.Args = contracts.EncodeArgs(parts...)
	settle.GasLimit = chain.DefaultGasLimit
	// Four forged settlements: 4 × scoreInvalidTx reaches demoteBelow.
	forged := make([]chain.Transaction, 4)
	for i := range forged {
		forged[i] = settle
		forged[i].Nonce = uint64(i)
	}
	net.Send(evil, members[0], Message{Kind: MsgTxPush, Txs: forged})
	waitFor(t, 10*time.Second, func() bool { return n0.isDemoted(evil) })
	if got := n0.Metrics()["p2p.txsInvalid"]; got != 4 {
		t.Fatalf("p2p.txsInvalid = %v, want 4", got)
	}
	if got := n0.Inner().Metrics()["node.poolSize"]; got != 0 {
		t.Fatalf("forged settlements entered the pool: %v", got)
	}
	if got := n0.Metrics()["p2p.txsAccepted"]; got != 0 {
		t.Fatalf("p2p.txsAccepted = %v, want 0", got)
	}
}
