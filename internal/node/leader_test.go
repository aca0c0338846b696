package node

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// TestRefusedLeadershipSealsNothing: a node whose predicate leads no height
// seals nothing — not at its interval, not for a client blocked on
// inclusion, not at Stop — and Stop fails every pooled waiter with
// ErrNodeStopped instead of leaving it to its context.
func TestRefusedLeadershipSealsNothing(t *testing.T) {
	c := chain.New()
	alice := fund(c, "alice", 1<<30)
	bob := chain.AddressFromString("bob")
	n := New(c, Config{BlockInterval: time.Millisecond})
	n.SetLeader(func(uint64) bool { return false })
	n.Start()

	var results []<-chan TxResult
	for i := 0; i < 5; i++ {
		_, done, err := n.SubmitForResult(chain.Transaction{From: alice, To: bob, Value: 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, done)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := n.SubmitAndWait(context.Background(), chain.Transaction{From: alice, To: bob, Value: 1}, true)
		waited <- err
	}()
	time.Sleep(50 * time.Millisecond) // fifty intervals
	if h := c.Height(); h != 0 {
		t.Fatalf("a node that leads nothing sealed up to height %d", h)
	}

	n.Stop()
	for i, done := range results {
		select {
		case res := <-done:
			if !errors.Is(res.Err, ErrNodeStopped) {
				t.Fatalf("pooled tx %d: %v, want ErrNodeStopped", i, res.Err)
			}
		default:
			t.Fatalf("pooled tx %d has no result after Stop", i)
		}
	}
	select {
	case err := <-waited:
		if !errors.Is(err, ErrNodeStopped) {
			t.Fatalf("blocked SubmitAndWait: %v, want ErrNodeStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked SubmitAndWait still waiting after Stop")
	}
	if h := c.Height(); h != 0 {
		t.Fatalf("Stop sealed up to height %d on a node that leads nothing", h)
	}
	if got := n.Metrics()["node.blocksSealed"]; got != 0 {
		t.Fatalf("node.blocksSealed = %v, want 0", got)
	}
}

// TestSealsOnlyItsOwnHeights: a node leading every third height runs its
// producer over a pool that always holds executable transactions, while the
// two heights after each of its blocks arrive by import from a peer chain,
// back to back, concurrently with the producer. The node must seal exactly
// its own heights, each once: every import applies (a height sealed here
// out of turn would refuse it), every block the node publishes at a peer's
// height is the peer's, and the seal and import counters split the chain
// between them.
func TestSealsOnlyItsOwnHeights(t *testing.T) {
	const rounds = 40
	leads := func(h uint64) bool { return h%3 == 0 }
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	genesis := func() *chain.Chain {
		c := chain.New()
		c.Faucet(alice, 1<<40)
		return c
	}
	peer := genesis()
	n := New(genesis(), Config{BlockInterval: time.Millisecond})
	n.SetLeader(leads)
	sub := n.Bus().SubscribeBlocks()
	defer n.Bus().UnsubscribeBlocks(sub)
	n.Start()

	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			if _, _, err := n.SubmitForResult(chain.Transaction{From: alice, To: bob, Value: 1}, true); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// peerTurn seals the peer's two heights and imports them into the node.
	peerSealed := map[uint64]chain.Hash{}
	peerTurn := func() {
		for i := 0; i < 2; i++ {
			blk := peer.ProduceBlock(nil).Block
			peerSealed[blk.Number] = blk.Hash()
			if _, err := n.ImportBlock(blk, nil); err != nil {
				t.Fatalf("import of the peer's height %d: %v", blk.Number, err)
			}
		}
	}
	peerTurn()
	for round := 0; round < rounds; {
		select {
		case bn := <-sub.C:
			h := bn.Block.Number
			if !leads(h) {
				if want, ok := peerSealed[h]; !ok || bn.Block.Hash() != want {
					t.Fatalf("height %d is the peer's, but the node published a block of its own there", h)
				}
				continue
			}
			body, _ := n.Chain().BlockBody(h)
			if _, err := peer.ImportBlock(bn.Block, body); err != nil {
				t.Fatalf("peer import of the node's height %d: %v", h, err)
			}
			peerTurn()
			round++
		case <-time.After(10 * time.Second):
			t.Fatalf("no block after round %d", round)
		}
	}
	close(stop)
	feeder.Wait()
	n.Stop()

	var own, imported float64
	for h := uint64(1); h <= n.Chain().Height(); h++ {
		if leads(h) {
			own++
		} else {
			imported++
		}
	}
	m := n.Metrics()
	if m["node.blocksSealed"] != own || m["node.blocksImported"] != imported {
		t.Fatalf("sealed %v and imported %v blocks; the chain holds %v of the node's heights and %v of the peer's",
			m["node.blocksSealed"], m["node.blocksImported"], own, imported)
	}
}
