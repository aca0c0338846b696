package node

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

var errStubProof = errors.New("stub: invalid proof")

// stubSealVerifier flags any transaction whose method is "bad" and enters
// every other one in the block's table as one validated proof item,
// standing in for contracts.BlockProofChecker (whose real pairing path is
// covered in internal/contracts). Tests install it on the chain, as a
// marketplace genesis installs the real one.
type stubSealVerifier struct{}

func (stubSealVerifier) CheckBlock(txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))
	marks := chain.ProofMarks{Width: make(map[chain.ProofID]int)}
	for i, tx := range txs {
		if tx.Method == "bad" {
			errs[i] = errStubProof
			continue
		}
		marks.Width[chain.ProofKey(tx.Contract, tx.Args)] = len(txs)
		marks.Items++
		marks.Txs++
	}
	return marks, errs
}

// TestSealVerifierEvictsFlaggedTxs pins the producer-side contract: flagged
// transactions never execute or enter a block, their waiters get the
// verifier's error, and the remaining transactions seal normally.
func TestSealVerifierEvictsFlaggedTxs(t *testing.T) {
	n, c := testNode(t, Config{MaxBlockTxs: 8, BlockInterval: 5 * time.Millisecond})
	c.SetBlockVerifier(stubSealVerifier{})
	// Distinct senders: evicting a transaction skips its execution, so a
	// same-sender follow-up would hit the resulting nonce gap — that cost
	// lands on whoever submitted the invalid proof, not on these senders.
	senders := []chain.Address{
		fund(c, "alice", 1_000_000),
		fund(c, "bob", 1_000_000),
		fund(c, "carol", 1_000_000),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type result struct {
		res TxResult
		err error
	}
	results := make([]result, 3)
	methods := []string{"put", "bad", "put"}
	done := make(chan int, 3)
	for i, m := range methods {
		go func(i int, m string) {
			res, err := n.SubmitAndWait(ctx, chain.Transaction{
				From: senders[i], Contract: "logbox", Method: m,
			}, true)
			results[i] = result{res, err}
			done <- i
		}(i, m)
	}
	for range methods {
		<-done
	}

	if !errors.Is(results[1].err, errStubProof) {
		t.Fatalf("flagged tx result: %v", results[1].err)
	}
	for _, i := range []int{0, 2} {
		if results[i].err != nil {
			t.Fatalf("valid tx %d failed: %v", i, results[i].err)
		}
		if results[i].res.Receipt == nil || results[i].res.BlockNumber == 0 {
			t.Fatalf("valid tx %d missing receipt/block", i)
		}
	}

	// The evicted transaction is in no sealed block.
	for num := uint64(1); ; num++ {
		b, ok := c.BlockByNumber(num)
		if !ok {
			break
		}
		for _, h := range b.TxHashes {
			if h == results[1].res.TxHash {
				t.Fatal("evicted tx found in a sealed block")
			}
		}
	}

	// The block records the fold of exactly its own body — the flagged
	// transaction was dropped before the table was settled — so a follower
	// holding the same verifier replays it.
	var folded uint32
	follower := chain.New()
	follower.SetBlockVerifier(stubSealVerifier{})
	if _, err := follower.Deploy("logbox", logbox{}, 100); err != nil {
		t.Fatal(err)
	}
	for _, s := range senders {
		follower.Faucet(s, 1_000_000)
	}
	for num := uint64(1); ; num++ {
		b, ok := c.BlockByNumber(num)
		if !ok {
			break
		}
		folded += b.Fold
		body, _ := c.BlockBody(num)
		if _, err := follower.ImportBlock(b, body); err != nil {
			t.Fatalf("follower refused block %d: %v", num, err)
		}
	}
	if folded != 2 {
		t.Fatalf("sealed headers record a fold of %d items, want 2", folded)
	}

	m := n.Metrics()
	for name, want := range map[string]float64{"node.proofsPreverified": 2, "node.proofsEvicted": 1, "node.txsIncluded": 2} {
		if m[name] != want {
			t.Fatalf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// slowSealVerifier is stubSealVerifier taking at least foldFloor per check.
type slowSealVerifier struct{ stubSealVerifier }

const foldFloor = 2 * time.Millisecond

func (v slowSealVerifier) CheckBlock(txs []*chain.Transaction) (chain.ProofMarks, []error) {
	time.Sleep(foldFloor)
	return v.stubSealVerifier.CheckBlock(txs)
}

// TestFoldTimeReachesMetrics: the seal-time fold's duration, timed by the
// chain around its block verifier, reaches node.foldP50Ms and
// node.foldP99Ms.
func TestFoldTimeReachesMetrics(t *testing.T) {
	n, c := testNode(t, Config{MaxBlockTxs: 8, BlockInterval: 5 * time.Millisecond})
	c.SetBlockVerifier(slowSealVerifier{})
	if m := n.Metrics(); m["node.foldP50Ms"] != 0 || m["node.foldP99Ms"] != 0 {
		t.Fatalf("fold percentiles before any block: %v, %v", m["node.foldP50Ms"], m["node.foldP99Ms"])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := n.SubmitAndWait(ctx, chain.Transaction{
		From: fund(c, "alice", 1_000_000), Contract: "logbox", Method: "put",
	}, true); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	floor := float64(foldFloor) / 1e6
	if m["node.foldP50Ms"] < floor || m["node.foldP99Ms"] < m["node.foldP50Ms"] {
		t.Fatalf("fold percentiles %v, %v ms; want p50 ≥ %v ms and p99 ≥ p50", m["node.foldP50Ms"], m["node.foldP99Ms"], floor)
	}
}
