package p2p

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/node"
)

// TestClusterBlockSpacing: a cluster has the block rate of one node.
// Twenty clients spread over five members each submit and wait in a loop
// for two seconds; no block is ever full, so every block is a partial one,
// and each must follow the one before it by at least BlockInterval —
// whichever member sealed either — as on a single node. Escrow deadlines
// count blocks, so this spacing is what a deadline's wall time rests on.
func TestClusterBlockSpacing(t *testing.T) {
	const (
		size     = 5
		clients  = 20
		interval = 10 * time.Millisecond
		load     = 2 * time.Second
	)
	senders := make([]chain.Address, clients)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("client-%02d", i))
	}
	sink := chain.AddressFromString("sink")
	cl := fundedCluster(t, size, 5, LinkProfile{Latency: 100 * time.Microsecond}, senders, node.Config{BlockInterval: interval})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), load)
	defer cancel()
	var included atomic.Uint64
	var wg sync.WaitGroup
	for i, from := range senders {
		wg.Add(1)
		go func(member *Node, from chain.Address) {
			defer wg.Done()
			for ctx.Err() == nil {
				res, err := member.SubmitAndWait(ctx, chain.Transaction{From: from, To: sink, Value: 1}, true)
				if errors.Is(err, node.ErrWaitCanceled) {
					return
				}
				if err != nil || res.Receipt.Err != nil {
					t.Errorf("client %s: %v %+v", from, err, res.Receipt)
					return
				}
				included.Add(1)
			}
		}(cl.Nodes[i%size], from)
	}
	wg.Wait()

	c := cl.Nodes[0].Inner().Chain()
	height := c.Height()
	if height < 20 || included.Load() < clients {
		t.Fatalf("%d blocks and %d inclusions in %v: the cluster made no progress", height, included.Load(), load)
	}
	prev, _ := c.BlockByNumber(1)
	for h := uint64(2); h <= height; h++ {
		b, _ := c.BlockByNumber(h)
		if len(b.TxHashes) >= node.DefaultConfig().MaxBlockTxs {
			t.Fatalf("block %d is full; the test needs partial blocks", h)
		}
		if gap := b.Time.Sub(prev.Time); gap < interval {
			t.Fatalf("block %d followed block %d after %v, inside the %v block interval", h, h-1, gap, interval)
		}
		prev = b
	}
	t.Logf("%d blocks, %d inclusions in %v", height, included.Load(), load)
}

// TestCanceledWaitReturnsGossipedHash: a wait cut short by its context
// still reports the hash its transaction was pooled and gossiped under,
// which a caller needs to find the transaction once it is sealed.
func TestCanceledWaitReturnsGossipedHash(t *testing.T) {
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	// An hour's interval: nothing is sealed while the test runs.
	cl := fundedCluster(t, 2, 2, LinkProfile{Latency: 100 * time.Microsecond}, []chain.Address{alice}, node.Config{BlockInterval: time.Hour})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	member, peer := cl.Nodes[0], cl.Nodes[1]
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan node.TxResult, 1)
	go func() {
		res, _ := member.SubmitAndWait(ctx, chain.Transaction{From: alice, To: bob, Value: 1}, true)
		got <- res
	}()
	waitFor(t, 5*time.Second, func() bool { return len(peer.Inner().PendingSample(1)) == 1 })
	cancel()
	res := <-got
	if !errors.Is(res.Err, node.ErrWaitCanceled) {
		t.Fatalf("canceled wait: %v, want ErrWaitCanceled", res.Err)
	}
	if gossiped := peer.Inner().PendingSample(1)[0].Hash(); res.TxHash != gossiped {
		t.Fatalf("canceled wait reports %s; the member gossiped %s", res.TxHash, gossiped)
	}
}
